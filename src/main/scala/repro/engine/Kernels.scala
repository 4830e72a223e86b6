package repro.engine

import repro.core.{Op, PullExtend, PushJoin}
import repro.graph.Intersect
import scala.collection.mutable.ArrayBuffer

/** Row-level kernels shared by [[repro.core.SimpleExec]] and the engine.
  * Rows are `Array[Int]` in the producing operator's `matched` column
  * order; 4 bytes per id. Each operator's matching semantics (its symmetry
  * conditions and injectivity pairs, Algorithm 4's extend, the PUSH-JOIN
  * pair merge) is compiled here once to column indices when the kernel is
  * built, so the row loops never look a query vertex up.
  */
object Kernels {
  def rowBytes(row: Array[Int]): Long = 4L * row.length
  def batchBytes(batch: Array[Array[Int]]): Long = {
    var bytes = 0L
    var i     = 0
    while (i < batch.length) { bytes += rowBytes(batch(i)); i += 1 }
    bytes
  }

  /** Whether `v` differs from `row` in every column of `cols` (injectivity). */
  private def distinctFrom(row: Array[Int], cols: Array[Int], v: Int): Boolean = {
    var p = 0
    while (p < cols.length) { if (row(cols(p)) == v) return false; p += 1 }
    true
  }

  /** An operator's symmetry conditions (a < b) as column pairs of its rows. */
  final class Conds(op: Op) {
    private val lo = op.conds.map(c => op.col(c._1)).toArray
    private val hi = op.conds.map(c => op.col(c._2)).toArray

    def ok(row: Array[Int]): Boolean = {
      var i = 0
      while (i < lo.length) {
        if (row(lo(i)) >= row(hi(i))) return false
        i += 1
      }
      true
    }
  }

  /** PULL-EXTEND (Algorithm 4) on one row: intersect the pivots' neighbour
    * lists, smallest first, stopping at an empty list. With `verify` the row
    * is kept iff its target binding lies in the intersection and the
    * conditions hold; otherwise the row is emitted once per candidate that
    * differs from the columns of the extend's injectivity pairs and meets
    * the conditions.
    */
  final class Extend(val op: PullExtend) {
    val pivotCols: Array[Int] = op.ext.map(op.input.col).toArray
    private val targetCol     = if (op.verify) op.input.col(op.target) else -1
    private val distinctCols  = op.distinctPairs.map(p => op.input.col(p._1)).toArray
    private val conds         = new Conds(op)

    /** Append the results of `row` to `out`; `nbrsOf` returns a pivot's
      * sorted neighbour list (null or empty when it has none).
      */
    def apply(row: Array[Int], nbrsOf: Int => Array[Int], out: ArrayBuffer[Array[Int]]): Unit = {
      val lists = new Array[Array[Int]](pivotCols.length)
      var smallest: Array[Int] = null
      var i = 0
      while (i < pivotCols.length) {
        val ns = nbrsOf(row(pivotCols(i)))
        if (ns == null || ns.isEmpty) return
        lists(i) = ns
        if (smallest == null || ns.length < smallest.length) smallest = ns
        i += 1
      }
      var cands = smallest
      i = 0
      while (i < lists.length && cands.nonEmpty) {
        if (lists(i) ne smallest) cands = Intersect.sorted(cands, lists(i))
        i += 1
      }
      if (op.verify) {
        if (java.util.Arrays.binarySearch(cands, row(targetCol)) >= 0 && conds.ok(row)) out += row
      } else {
        i = 0
        while (i < cands.length) {
          val v = cands(i)
          if (distinctFrom(row, distinctCols, v)) {
            val nr = java.util.Arrays.copyOf(row, row.length + 1)
            nr(row.length) = v
            if (conds.ok(nr)) out += nr
          }
          i += 1
        }
      }
    }
  }

  /** PUSH-JOIN (§4.3) on one (left, right) row pair with equal join keys:
    * the join's injectivity pairs and conditions must hold. Returns the
    * merged row, or null if the pair is infeasible.
    */
  final class PairJoin(j: PushJoin) {
    private val rExtraCols = j.right.matched.diff(j.left.matched).map(j.right.col).toArray
    private val distinctL  = j.distinctPairs.map(p => j.left.col(p._1)).toArray
    private val distinctR  = j.distinctPairs.map(p => j.right.col(p._2)).toArray
    private val width = j.matched.length
    private val conds = new Conds(j)

    def tryJoin(l: Array[Int], r: Array[Int]): Array[Int] = {
      var i = 0
      while (i < distinctL.length) { if (l(distinctL(i)) == r(distinctR(i))) return null; i += 1 }
      val row = java.util.Arrays.copyOf(l, width)
      i = 0
      while (i < rExtraCols.length) { row(l.length + i) = r(rExtraCols(i)); i += 1 }
      if (conds.ok(row)) row else null
    }
  }

  /** Open-addressing int hash set (no boxing) — the fetch stage dedups the
    * remote pivot vertices of every batch, so this path must be cheap for
    * the paper's "t_f is a small fraction of runtime" to hold.
    */
  final class IntSet(initialCapacity: Int = 1024) {
    private var mask  = Integer.highestOneBit(math.max(16, initialCapacity) * 2 - 1) * 2 - 1
    private var table = Array.fill(mask + 1)(-1)
    private var n     = 0

    def size: Int = n

    /** Returns true if v was newly added. */
    def add(v: Int): Boolean = {
      var i = (v * 0x9E3779B9 >>> 8) & mask
      while (true) {
        val cur = table(i)
        if (cur == v) return false
        if (cur == -1) {
          table(i) = v
          n += 1
          if (n * 4 > mask * 3) grow()
          return true
        }
        i = (i + 1) & mask
      }
      false
    }

    private def grow(): Unit = {
      val old = table
      mask = mask * 2 + 1
      table = Array.fill(mask + 1)(-1)
      n = 0
      old.foreach(v => if (v != -1) add(v))
    }

    def foreach(f: Int => Unit): Unit = table.foreach(v => if (v != -1) f(v))
  }
}
