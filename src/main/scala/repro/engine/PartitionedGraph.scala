package repro.engine

import repro.graph.DataGraph

/** The data graph randomly hash-partitioned over k machines (§2 Graph
  * Storage): vertex v with its adjacency list lives on machine owner(v).
  * A machine may only read `nbrs` of vertices it owns — remote adjacency
  * must go through the engine's pull path (RPC + cache), which is what the
  * communication accounting measures.
  */
final class PartitionedGraph(val g: DataGraph, val k: Int) {
  require(k >= 1, "need at least one machine")

  /** Machine owning vertex v. Multiplicative hash so partition != vid range. */
  def owner(v: Int): Int = ((v * 0x9E3779B9) >>> 16) % k

  /** Adjacency of a vertex owned by `machine` (guarded local read). */
  def localNbrs(v: Int, machine: Int): Array[Int] = {
    require(owner(v) == machine, s"vertex $v not owned by machine $machine")
    g.neighbours(v)
  }

  /** Server side of the GetNbrs RPC: machine owner(v) returns N(v). */
  def serveNbrs(v: Int): Array[Int] = g.neighbours(v)

  def localVertices(machine: Int): Iterator[Int] =
    (0 until g.numVertices).iterator.filter(owner(_) == machine)
}
