package repro.core

import repro.engine.{EngineConfig, JoinSpec, Kernels, Metrics}
import repro.graph.DataGraph
import scala.collection.mutable.ArrayBuffer

/** Reference single-threaded interpreter of a dataflow [[Op]] tree.
  *
  * Used to validate plans/dataflows independently of the distributed
  * engines: a sequential traversal without partitioning, caches, queues or
  * stealing. The row semantics of every operator come from
  * [[repro.engine.Kernels]], the same kernels the engine runs, and a
  * PUSH-JOIN is the engine's own [[repro.engine.JoinSpec]] on one machine.
  * Rows are arrays of data-vertex ids in `op.matched` column order.
  */
object SimpleExec {

  def count(op: Op, g: DataGraph): Long = {
    var c = 0L
    foreach(op, g)(_ => c += 1)
    c
  }

  def foreach(op: Op, g: DataGraph)(f: Array[Int] => Unit): Unit = op match {
    case s: ScanEdge =>
      val conds = new Kernels.Conds(s)
      g.directedEdgeIterator.foreach { case (u, w) =>
        val row = Array(u, w)
        if (conds.ok(row)) f(row)
      }

    case e: PullExtend =>
      val extend = new Kernels.Extend(e)
      val out    = new ArrayBuffer[Array[Int]]()
      foreach(e.input, g) { in =>
        extend(in, g.neighbours, out)
        out.foreach(f)
        out.clear()
      }

    case j: PushJoin =>
      val spec = new JoinSpec(j, EngineConfig(machines = 1), new Metrics(1))
      try {
        foreach(j.left, g)(spec.push(0, 0, _))
        foreach(j.right, g)(spec.push(0, 1, _))
        spec.resultIterator(0).foreach(f)
      } finally spec.clear()
  }
}
