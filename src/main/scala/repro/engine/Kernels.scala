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
    *
    * A binding extend's conditions on its target bound every candidate: a
    * condition target < b caps it below row(b), and a < target lifts it
    * above row(a). They are compiled to two column arrays, and each row
    * intersects only the sub-range of every list that lies in the allowed
    * id range [lo, hi), found by binary search. A single-pivot extend (every
    * star unit's extension) walks its one sub-range without intersecting.
    * The candidates still pass the injectivity and condition checks, so the
    * output is the full intersection's, filtered.
    *
    * Every pivot list is read before the range is known, in pivot order,
    * even when the range turns out empty: with a per-access cache a read is
    * an access that pulls or hits (BENU's external store counts each one),
    * so skipping reads would change the modelled store traffic, not only
    * the time.
    */
  final class Extend(val op: PullExtend) {
    val pivotCols: Array[Int] = op.ext.map(op.input.col).toArray
    private val targetCol     = if (op.verify) op.input.col(op.target) else -1
    private val distinctCols  = op.distinctPairs.map(p => op.input.col(p._1)).toArray
    private val conds         = new Conds(op)
    /** Input columns c with a condition "candidate < row(c)", resp. "> row(c)". */
    private val belowCols =
      if (op.verify) Array.empty[Int]
      else op.conds.collect { case (op.target, b) => op.input.col(b) }.toArray
    private val aboveCols =
      if (op.verify) Array.empty[Int]
      else op.conds.collect { case (a, op.target) => op.input.col(a) }.toArray

    /** Append the results of `row` to `out`; `nbrsOf` returns a pivot's
      * sorted neighbour list (null or empty when it has none).
      */
    def apply(row: Array[Int], nbrsOf: Int => Array[Int], out: ArrayBuffer[Array[Int]]): Unit = {
      val first = nbrsOf(row(pivotCols(0)))
      if (first == null || first.isEmpty) return
      val n     = pivotCols.length
      val lists = if (n == 1) null else new Array[Array[Int]](n)
      var i = 1
      while (i < n) {
        val ns = nbrsOf(row(pivotCols(i)))
        if (ns == null || ns.isEmpty) return
        lists(i) = ns
        i += 1
      }
      val lo = lowestId(row)
      val hi = idLimit(row)
      if (lo >= hi) return
      if (n == 1) { emit(row, first, start(first, lo), end(first, hi), out); return }
      lists(0) = first
      // Each list's sub-range as (start, end) at (2i, 2i + 1).
      val range    = new Array[Int](2 * n)
      var smallest = 0
      i = 0
      while (i < n) {
        range(2 * i) = start(lists(i), lo)
        range(2 * i + 1) = end(lists(i), hi)
        if (range(2 * i + 1) - range(2 * i) < range(2 * smallest + 1) - range(2 * smallest)) smallest = i
        i += 1
      }
      var cands = lists(smallest)
      var cFrom = range(2 * smallest)
      var cTo   = range(2 * smallest + 1)
      i = 0
      while (i < n && cFrom < cTo) {
        if (i != smallest) {
          cands = Intersect.sorted(cands, cFrom, cTo, lists(i), range(2 * i), range(2 * i + 1))
          cFrom = 0
          cTo = cands.length
        }
        i += 1
      }
      emit(row, cands, cFrom, cTo, out)
    }

    /** The least id the target's conditions allow a candidate of `row`. */
    private[engine] def lowestId(row: Array[Int]): Int = {
      var lo = Int.MinValue
      var i  = 0
      while (i < aboveCols.length) { lo = math.max(lo, row(aboveCols(i)) + 1); i += 1 }
      lo
    }

    /** The least id above every id the target's conditions allow. */
    private[engine] def idLimit(row: Array[Int]): Int = {
      var hi = Int.MaxValue
      var i  = 0
      while (i < belowCols.length) { hi = math.min(hi, row(belowCols(i))); i += 1 }
      hi
    }

    /** The sub-range [start, end) of a list that lies in [lo, hi). */
    private def start(ns: Array[Int], lo: Int): Int =
      if (aboveCols.length == 0) 0 else Intersect.lowerBound(ns, lo)
    private def end(ns: Array[Int], hi: Int): Int =
      if (belowCols.length == 0) ns.length else Intersect.lowerBound(ns, hi)

    /** The row's results for the candidates `cands(from until to)`. */
    private def emit(row: Array[Int], cands: Array[Int], from: Int, to: Int,
                     out: ArrayBuffer[Array[Int]]): Unit =
      if (op.verify) {
        if (java.util.Arrays.binarySearch(cands, from, to, row(targetCol)) >= 0 && conds.ok(row)) out += row
      } else {
        var i = from
        while (i < to) {
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

  /** PUSH-JOIN (§4.3) on one (left, right) row pair with equal join keys:
    * the join's injectivity pairs and conditions must hold. The pair is
    * read in place, each row at an offset of a flat array, so a pair that
    * does not join costs no row.
    */
  final class PairJoin(j: PushJoin) {
    private val lWidth     = j.left.matched.length
    private val rExtraCols = j.right.matched.diff(j.left.matched).map(j.right.col).toArray
    private val distinctL  = j.distinctPairs.map(p => j.left.col(p._1)).toArray
    private val distinctR  = j.distinctPairs.map(p => j.right.col(p._2)).toArray
    private val width = j.matched.length
    // A merged row's column as the side it is read from: c >= 0 is left
    // column c, c < 0 is right column ~c.
    private def sideCol(c: Int): Int = if (c < lWidth) c else ~rExtraCols(c - lWidth)
    private val condLo = j.conds.map(c => sideCol(j.col(c._1))).toArray
    private val condHi = j.conds.map(c => sideCol(j.col(c._2))).toArray

    private def at(c: Int, l: Array[Int], lOff: Int, r: Array[Int], rOff: Int): Int =
      if (c >= 0) l(lOff + c) else r(rOff + ~c)

    /** Whether the left row at `l(lOff)` and the right row at `r(rOff)` join. */
    def joins(l: Array[Int], lOff: Int, r: Array[Int], rOff: Int): Boolean = {
      var i = 0
      while (i < distinctL.length) { if (l(lOff + distinctL(i)) == r(rOff + distinctR(i))) return false; i += 1 }
      i = 0
      while (i < condLo.length) {
        if (at(condLo(i), l, lOff, r, rOff) >= at(condHi(i), l, lOff, r, rOff)) return false
        i += 1
      }
      true
    }

    /** The merged row of a pair that [[joins]]. */
    def row(l: Array[Int], lOff: Int, r: Array[Int], rOff: Int): Array[Int] = {
      val out = new Array[Int](width)
      System.arraycopy(l, lOff, out, 0, lWidth)
      var i = 0
      while (i < rExtraCols.length) { out(lWidth + i) = r(rOff + rExtraCols(i)); i += 1 }
      out
    }

    /** The merged row of two row arrays, or null if the pair is infeasible. */
    def tryJoin(l: Array[Int], r: Array[Int]): Array[Int] = if (joins(l, 0, r, 0)) row(l, 0, r, 0) else null
  }

  /** Open-addressing int hash set (no boxing) — the fetch stage dedups the
    * remote pivot vertices of every batch, so this path must be cheap for
    * the paper's "t_f is a small fraction of runtime" to hold.
    */
  final class IntSet(initialCapacity: Int = 1024) {
    private var mask  = Integer.highestOneBit(math.max(16, initialCapacity) * 2 - 1) * 2 - 1
    private var table = IntSet.empty(mask + 1)
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
      table = IntSet.empty(mask + 1)
      n = 0
      var i = 0
      while (i < old.length) { if (old(i) != -1) add(old(i)); i += 1 }
    }

    /** Every member, in table order. */
    def foreach(f: Int => Unit): Unit = {
      var i = 0
      while (i < table.length) { if (table(i) != -1) f(table(i)); i += 1 }
    }
  }

  object IntSet {
    /** An `Int` table of `len` slots, each -1 (empty). */
    def empty(len: Int): Array[Int] = {
      val t = new Array[Int](len)
      java.util.Arrays.fill(t, -1)
      t
    }
  }
}
