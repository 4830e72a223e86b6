package repro.core

import repro.engine.Kernels
import repro.graph.DataGraph
import scala.collection.mutable.ArrayBuffer

/** Reference single-threaded interpreter of a dataflow [[Op]] tree.
  *
  * Used to validate plans/dataflows independently of the distributed
  * engines: a sequential traversal without partitioning, caches, queues or
  * stealing. The row semantics of every operator come from
  * [[repro.engine.Kernels]], the same kernels the engine runs. Rows are
  * arrays of data-vertex ids in `op.matched` column order.
  */
object SimpleExec {

  def count(op: Op, g: DataGraph): Long = {
    var c = 0L
    foreach(op, g)(_ => c += 1)
    c
  }

  def run(op: Op, g: DataGraph): Vector[Array[Int]] = {
    val out = Vector.newBuilder[Array[Int]]
    foreach(op, g)(r => out += r.clone())
    out.result()
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
      // Build side = left; probe side = right (tests run on tiny graphs).
      val lKeyCols = j.key.map(j.left.col).toArray
      val rKeyCols = j.key.map(j.right.col).toArray
      val pairs    = new Kernels.PairJoin(j)
      val built    = collection.mutable.Map.empty[Vector[Int], List[Array[Int]]]
      foreach(j.left, g) { l =>
        val k = lKeyCols.map(l).toVector
        built(k) = l.clone() :: built.getOrElse(k, Nil)
      }
      foreach(j.right, g) { r =>
        for (l <- built.getOrElse(rKeyCols.map(r).toVector, Nil)) {
          val row = pairs.tryJoin(l, r)
          if (row != null) f(row)
        }
      }
  }
}
