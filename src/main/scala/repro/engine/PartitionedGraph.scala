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

  /** The vertices `machine` owns in multiplicative-hash order, the order a
    * scan source visits them. With hub-first vertex ids (our generators
    * place hubs at low ids) a sequential scan would start with the most
    * expensive pivots; hashing spreads them evenly, which is what a random
    * partition of a real graph looks like. Each vertex is sorted as the
    * `Long` (hash << 32 | v), unboxed; v · 0x9E3779B9 is a bijection on
    * `Int`, so no two vertices tie.
    */
  def scanOrder(machine: Int): Array[Int] = {
    val keys = new Array[Long](g.numVertices)
    var n = 0
    var v = 0
    while (v < g.numVertices) {
      if (owner(v) == machine) { keys(n) = ((v * 0x9E3779B9).toLong << 32) | (v & 0xFFFFFFFFL); n += 1 }
      v += 1
    }
    java.util.Arrays.sort(keys, 0, n)
    val order = new Array[Int](n)
    var i = 0
    while (i < n) { order(i) = keys(i).toInt; i += 1 }
    order
  }
}
