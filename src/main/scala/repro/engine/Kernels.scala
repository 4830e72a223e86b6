package repro.engine

import java.io._
import repro.core.{Op, PullExtend, PushJoin}
import repro.graph.Intersect
import scala.collection.mutable.ArrayBuffer

/** Row-level kernels shared by [[repro.core.SimpleExec]] and the engine.
  * Rows are `Array[Int]` in the producing operator's `matched` column
  * order; 4 bytes per id. Each operator's matching semantics (symmetry
  * conditions, injectivity, Algorithm 4's extend, the PUSH-JOIN pair merge)
  * is defined here once, compiled to column indices when the kernel is
  * built so the row loops never look a query vertex up.
  */
object Kernels {
  def rowBytes(row: Array[Int]): Long = 4L * row.length
  def batchBytes(batch: Array[Array[Int]]): Long = {
    var bytes = 0L
    var i     = 0
    while (i < batch.length) { bytes += rowBytes(batch(i)); i += 1 }
    bytes
  }

  /** Whether `v` is already bound in `row` (injectivity). */
  private def bound(row: Array[Int], v: Int): Boolean = {
    var p = 0
    while (p < row.length) { if (row(p) == v) return true; p += 1 }
    false
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
    * differs from every bound vertex and meets the conditions.
    */
  final class Extend(val op: PullExtend) {
    val pivotCols: Array[Int] = op.ext.map(op.input.col).toArray
    private val targetCol     = if (op.verify) op.input.col(op.target) else -1
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
          if (!bound(row, v)) {
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
    * the right side's extra vertices must differ from every left binding,
    * and the join's conditions must hold. Returns the merged row, or null
    * if the pair is infeasible.
    */
  final class PairJoin(j: PushJoin) {
    private val rExtraCols: Array[Int] = j.right.matched.zipWithIndex
      .collect { case (v, i) if !j.left.matched.contains(v) => i }.toArray
    private val width = j.matched.length
    private val conds = new Conds(j)

    def tryJoin(l: Array[Int], r: Array[Int]): Array[Int] = {
      val row = java.util.Arrays.copyOf(l, width)
      var i   = 0
      while (i < rExtraCols.length) {
        val v = r(rExtraCols(i))
        if (bound(l, v)) return null
        row(l.length + i) = v
        i += 1
      }
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

  /** Lexicographic comparison of two rows on the given key columns. */
  def compareKeys(a: Array[Int], aCols: Array[Int], b: Array[Int], bCols: Array[Int]): Int = {
    var i = 0
    while (i < aCols.length) {
      val c = Integer.compare(a(aCols(i)), b(bCols(i)))
      if (c != 0) return c
      i += 1
    }
    0
  }
}

/** One side of a buffered distributed hash join (§4.3) on one machine.
  *
  * Producers add shuffled rows; when the in-memory buffer exceeds the
  * threshold the rows are sorted by join key and spilled to disk as a run
  * ("external merge sort via the join keys"). `sortedIterator` merges the
  * in-memory rest with all on-disk runs into one key-ordered stream, so the
  * join reads each key group streaming — memory stays bounded by the buffer
  * size regardless of input size. Spilled runs and the in-memory rest are
  * ordered by the same sort, [[JoinSideBuffer.sortByKeys]].
  */
final class JoinSideBuffer(rowWidth: Int, keyCols: Array[Int], spillThresholdRows: Int,
                           machine: Int, metrics: Metrics) {
  private val mem   = new ArrayBuffer[Array[Int]]()
  private val runs  = new ArrayBuffer[File]()
  private var total = 0L
  // Per key column of the in-memory rows, sign bit flipped: the bits that
  // are 1 in every row and in some row. Bits outside their difference
  // cannot change the order, and the sort skips them.
  private val keySame = Array.fill(keyCols.length)(-1)
  private val keyAny  = new Array[Int](keyCols.length)

  def add(row: Array[Int]): Unit = this.synchronized {
    mem += row
    total += 1
    var c = 0
    while (c < keyCols.length) {
      val v = row(keyCols(c)) ^ Int.MinValue
      keySame(c) &= v
      keyAny(c) |= v
      c += 1
    }
    metrics.memAdd(machine, Kernels.rowBytes(row))
    if (mem.length >= spillThresholdRows) spill()
  }

  def rows: Long = this.synchronized(total)

  private def spill(): Unit = {
    val sorted = JoinSideBuffer.sortByKeys(mem, keyCols, keySame, keyAny)
    val f      = File.createTempFile(s"huge-join-m$machine", ".run")
    f.deleteOnExit()
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(f), 1 << 16))
    try sorted.foreach { r => var i = 0; while (i < rowWidth) { out.writeInt(r(i)); i += 1 } }
    finally out.close()
    runs += f
    metrics.spilledBytes.addAndGet(4L * rowWidth * sorted.length)
    releaseMem()
  }

  /** Key-ordered iterator over all buffered rows (memory + spilled runs).
    * Call once, after all producers are done.
    */
  def sortedIterator(): Iterator[Array[Int]] = this.synchronized {
    val memSorted = JoinSideBuffer.sortByKeys(mem, keyCols, keySame, keyAny).iterator
    val runIts: Seq[Iterator[Array[Int]]] = runs.toSeq.map(readRun)
    val its = (memSorted +: runIts).map(_.buffered).filter(_.hasNext)
    if (its.isEmpty) return Iterator.empty
    if (its.size == 1) return its.head // common case: nothing spilled
    new Iterator[Array[Int]] {
      private val heap = new java.util.PriorityQueue[scala.collection.BufferedIterator[Array[Int]]](
        math.max(1, its.size),
        (x, y) => Kernels.compareKeys(x.head, keyCols, y.head, keyCols))
      its.foreach(heap.add)
      def hasNext: Boolean = !heap.isEmpty
      def next(): Array[Int] = {
        val it = heap.poll()
        val r  = it.next()
        if (it.hasNext) heap.add(it)
        r
      }
    }
  }

  private def readRun(f: File): Iterator[Array[Int]] = {
    val in = new DataInputStream(new BufferedInputStream(new FileInputStream(f), 1 << 16))
    new Iterator[Array[Int]] {
      private var nextRow: Array[Int] = advance()
      private def advance(): Array[Int] =
        try {
          val r = new Array[Int](rowWidth)
          var i = 0
          while (i < rowWidth) { r(i) = in.readInt(); i += 1 }
          r
        } catch { case _: EOFException => in.close(); null }
      def hasNext: Boolean = nextRow != null
      def next(): Array[Int] = { val r = nextRow; nextRow = advance(); r }
    }
  }

  /** Release in-memory rows (after the join consumed the iterator). */
  def clear(): Unit = this.synchronized {
    releaseMem()
    runs.foreach(_.delete())
    runs.clear()
  }

  private def releaseMem(): Unit = {
    metrics.memAdd(machine, -4L * rowWidth * mem.length)
    mem.clear()
    java.util.Arrays.fill(keySame, -1)
    java.util.Arrays.fill(keyAny, 0)
  }
}

object JoinSideBuffer {

  /** Stable LSD radix sort of `rows` by the key columns `keyCols`, in the
    * order of [[Kernels.compareKeys]]. No comparisons, no boxing.
    *
    * Key values are taken with the sign bit flipped, so that unsigned order
    * is `Int` order. `same(c)` and `any(c)` hold the bits of key column `c`
    * that are 1 in every row and in some row; only the bits where they
    * differ are sorted. Each round packs those bits of as many trailing key
    * columns as fit into 32 into one composite key per row, held in a
    * `Long` above the row's index, and sorts it in digits whose width
    * minimises passes × (rows + buckets), skipping a digit that is the same
    * for every row. Rounds run from the last key columns to the first, so a
    * join key of up to 32 varying bits is sorted in one round.
    */
  private def sortByKeys(rows: ArrayBuffer[Array[Int]], keyCols: Array[Int],
                         same: Array[Int], any: Array[Int]): Array[Array[Int]] = {
    val n     = rows.length
    val k     = keyCols.length
    val lo    = Array.tabulate(k)(c => Integer.numberOfTrailingZeros(same(c) ^ any(c)))
    val width = Array.tabulate(k)(c => 32 - Integer.numberOfLeadingZeros(same(c) ^ any(c)) - lo(c) max 0)

    var a = new Array[Long](n)
    var b = new Array[Long](n)
    var i = 0
    while (i < n) { a(i) = i; i += 1 }
    var hist = new Array[Int](0)
    var last = k - 1
    while (last >= 0 && n > 1) {
      var first = last
      var bits  = width(last)
      while (first > 0 && bits + width(first - 1) <= 32) { first -= 1; bits += width(first) }
      var packedSame = -1
      var packedAny  = 0
      i = 0
      while (i < n) {
        val idx = a(i).toInt
        val r   = rows(idx)
        var key = 0
        var c   = first
        while (c <= last) {
          if (width(c) > 0)
            key = (key << width(c)) | (((r(keyCols(c)) ^ Int.MinValue) >>> lo(c)) & (-1 >>> (32 - width(c))))
          c += 1
        }
        packedSame &= key
        packedAny |= key
        a(i) = (key.toLong << 32) | idx
        i += 1
      }
      val diff = packedSame ^ packedAny
      if (diff != 0) {
        val from  = Integer.numberOfTrailingZeros(diff)
        val to    = 32 - Integer.numberOfLeadingZeros(diff)
        val digit = digitBits(n, to - from)
        val mask  = (1 << digit) - 1
        if (hist.length <= mask) hist = new Array[Int](mask + 1)
        var shift = from
        while (shift < to) {
          if (((diff >>> shift) & mask) != 0) {
            java.util.Arrays.fill(hist, 0, mask + 1, 0)
            i = 0
            while (i < n) { hist((a(i) >>> (32 + shift)).toInt & mask) += 1; i += 1 }
            var start = 0
            var d     = 0
            while (d <= mask) { val h = hist(d); hist(d) = start; start += h; d += 1 }
            i = 0
            while (i < n) {
              val x = a(i)
              d = (x >>> (32 + shift)).toInt & mask
              b(hist(d)) = x
              hist(d) += 1
              i += 1
            }
            val t = a; a = b; b = t
          }
          shift += digit
        }
      }
      last = first - 1
    }
    b = null // garbage from here on; a collection during the copy may reclaim it
    val out = new Array[Array[Int]](n)
    i = 0
    while (i < n) { out(i) = rows(a(i).toInt); i += 1 }
    out
  }

  /** Digit width for sorting `width` varying bits of `n` rows: the one that
    * minimises passes × (n + 2^bits), capped at 16 bits.
    */
  private def digitBits(n: Int, width: Int): Int = {
    var best     = 1
    var bestCost = Long.MaxValue
    var bits     = 1
    while (bits <= math.min(16, width)) {
      val cost = ((width + bits - 1) / bits).toLong * (n + (1L << bits))
      if (cost < bestCost) { best = bits; bestCost = cost }
      bits += 1
    }
    best
  }
}
