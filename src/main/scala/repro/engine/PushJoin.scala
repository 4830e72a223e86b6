package repro.engine

import java.io._
import repro.core.PushJoin
import scala.collection.mutable.ArrayBuffer

/** One PUSH-JOIN (§4.3), a buffered distributed hash join, over its whole
  * lifecycle: each chunk of produced rows is routed to the machines owning
  * its join keys ([[route]]), buffered and spilled there per side, merged
  * by key group ([[resultIterator]]) and finally dropped with its spill runs
  * ([[clear]]).
  *
  * Each machine's buckets are split into [[parts]] = `workersPerMachine`
  * key parts, so that the machine's workers sort and merge them in
  * parallel ([[partIterator]]); the rows of one key are in one part. Side
  * `side` of part `p` on machine `m` is `buffers(m)(2 · p + side)`. A part
  * spills at its share of the threshold, max(1, `spillThresholdRows` /
  * parts), so a machine side holds at most max(threshold, parts) rows in
  * memory.
  */
final class JoinSpec(val op: PushJoin, cfg: EngineConfig, metrics: Metrics) {
  val parts: Int      = cfg.workersPerMachine
  private val buckets = cfg.machines * parts
  private val sides   = Array(op.left, op.right)
  private val keyCols = sides.map(side => op.key.map(side.col).toArray)
  private val pairs   = new Kernels.PairJoin(op)
  val buffers: Array[Array[JoinSideBuffer]] = Array.tabulate(cfg.machines, 2 * parts) { (m, j) =>
    val side = j % 2
    new JoinSideBuffer(sides(side).matched.length, keyCols(side), math.max(1, cfg.spillThresholdRows / parts),
                       m, metrics)
  }

  /** The bucket, machine · parts + part, of a row of `side`. Above its low
    * 8 bits the join-key hash is read as digits: the lowest, in base
    * `machines`, is the machine and the next, in base `parts`, the part.
    */
  private def bucket(side: Int, row: Array[Int]): Int = {
    val cols = keyCols(side)
    var h = 17
    var i = 0
    while (i < cols.length) { h = h * 31 + row(cols(i)) * 0x9E3779B9; i += 1 }
    val x = h >>> 8
    x % cfg.machines * parts + x / cfg.machines % parts
  }

  /** Buffer `rows` of `side`, produced on machine `from`, at the machines
    * owning their join-key buckets: one pass groups them by bucket, in
    * order, then each bucket takes its rows in one append. The rows that
    * leave `from` are charged as pushed.
    */
  def route(from: Int, side: Int, rows: collection.IndexedSeq[Array[Int]]): Unit = {
    val n     = rows.length
    val of    = new Array[Int](n)
    val start = new Array[Int](buckets + 1) // bucket b's rows are grouped(start(b) until start(b + 1))
    var pushed = 0L
    var i = 0
    while (i < n) {
      val b = bucket(side, rows(i))
      of(i) = b
      start(b + 1) += 1
      if (b / parts != from) pushed += Kernels.rowBytes(rows(i))
      i += 1
    }
    if (pushed > 0) metrics.bytesPushed.addAndGet(pushed)
    var b = 0
    while (b < buckets) { start(b + 1) += start(b); b += 1 }
    val next    = start.clone()
    val grouped = new Array[Array[Int]](n)
    i = 0
    while (i < n) { grouped(next(of(i))) = rows(i); next(of(i)) += 1; i += 1 }
    b = 0
    while (b < buckets) {
      if (start(b) < start(b + 1))
        buffers(b / parts)(2 * (b % parts) + side).addAll(grouped, start(b), start(b + 1))
      b += 1
    }
  }

  /** Key-aligned merge join over part `part` of machine m's buckets. Fully
    * streaming: key groups are loaded (bounded by the largest group) but
    * the cross-product of a group is emitted row-by-row, never
    * materialised. Both sides are sorted here, on the calling thread.
    */
  def partIterator(m: Int, part: Int): Iterator[Array[Int]] = {
    import JoinSideBuffer.compareKeys
    val Array(leftKeyCols, rightKeyCols) = keyCols
    val li = buffers(m)(2 * part).sortedIterator().buffered
    val ri = buffers(m)(2 * part + 1).sortedIterator().buffered
    new Iterator[Array[Int]] {
      private val lg = new ArrayBuffer[Array[Int]]()
      private val rg = new ArrayBuffer[Array[Int]]()
      private var i = 0; private var j = 0
      private var nextRow: Array[Int] = advance()

      private def loadGroups(): Boolean = {
        lg.clear(); rg.clear(); i = 0; j = 0
        while (li.hasNext && ri.hasNext) {
          val c = compareKeys(li.head, leftKeyCols, ri.head, rightKeyCols)
          if (c < 0) li.next()
          else if (c > 0) ri.next()
          else {
            val keyRow = li.head
            while (li.hasNext && compareKeys(li.head, leftKeyCols, keyRow, leftKeyCols) == 0)
              lg += li.next()
            while (ri.hasNext && compareKeys(ri.head, rightKeyCols, keyRow, leftKeyCols) == 0)
              rg += ri.next()
            return true
          }
        }
        false
      }

      private def advance(): Array[Int] = {
        while (true) {
          while (i < lg.length) {
            while (j < rg.length) {
              val row = pairs.tryJoin(lg(i), rg(j))
              j += 1
              if (row != null) return row
            }
            j = 0; i += 1
          }
          if (!loadGroups()) return null
        }
        null // unreachable
      }

      def hasNext: Boolean = nextRow != null
      def next(): Array[Int] = { val r = nextRow; nextRow = advance(); r }
    }
  }

  /** The merge join over all of machine m's buckets: its parts' merges, one after another. */
  def resultIterator(m: Int): Iterator[Array[Int]] = Iterator.range(0, parts).flatMap(partIterator(m, _))

  /** Drop machine m's rows and spill runs, once its merge is done or abandoned. */
  def clear(m: Int): Unit = buffers(m).foreach(_.clear())

  def clear(): Unit = buffers.indices.foreach(clear)
}

/** One side of a buffered distributed hash join (§4.3) on one machine.
  *
  * Producers append routed chunks of rows ([[addAll]], one lock per
  * chunk); when the in-memory buffer reaches the threshold the rows are
  * sorted by join key and spilled to disk as a run
  * ("external merge sort via the join keys"). `sortedIterator` merges the
  * in-memory rest with all on-disk runs into one key-ordered stream, so the
  * join reads each key group streaming — memory stays bounded by the buffer
  * size regardless of input size. Spilled runs and the in-memory rest are
  * ordered by the same sort, [[JoinSideBuffer.sortByKeys]].
  */
final class JoinSideBuffer(rowWidth: Int, keyCols: Array[Int], spillThresholdRows: Int,
                           machine: Int, metrics: Metrics) {
  private val mem     = new ArrayBuffer[Array[Int]]()
  private val runs    = new ArrayBuffer[File]()
  private val readers = new ArrayBuffer[DataInputStream]()
  private var total   = 0L
  // Per key column of the in-memory rows, sign bit flipped: the bits that
  // are 1 in every row and in some row. Bits outside their difference
  // cannot change the order, and the sort skips them.
  private val keySame = Array.fill(keyCols.length)(-1)
  private val keyAny  = new Array[Int](keyCols.length)

  /** Append `rows(from until until)` under one lock: the buffer spills as
    * soon as it holds `spillThresholdRows` rows, and the machine's memory
    * is charged once per spill and once for the rest.
    */
  def addAll(rows: Array[Array[Int]], from: Int, until: Int): Unit = this.synchronized {
    var held = 0 // rows appended and not yet charged
    var i    = from
    while (i < until) {
      val row = rows(i)
      mem += row
      var c = 0
      while (c < keyCols.length) {
        val v = row(keyCols(c)) ^ Int.MinValue
        keySame(c) &= v
        keyAny(c) |= v
        c += 1
      }
      held += 1
      i += 1
      if (mem.length >= spillThresholdRows) {
        metrics.memAdd(machine, 4L * rowWidth * held)
        held = 0
        spill()
      }
    }
    total += until - from
    if (held > 0) metrics.memAdd(machine, 4L * rowWidth * held)
  }

  def add(row: Array[Int]): Unit = addAll(Array(row), 0, 1)

  def rows: Long = this.synchronized(total)

  private def spill(): Unit = {
    val sorted = JoinSideBuffer.sortByKeys(mem, keyCols, keySame, keyAny)
    val f      = File.createTempFile(s"huge-join-m$machine", ".run")
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
        (x, y) => JoinSideBuffer.compareKeys(x.head, keyCols, y.head, keyCols))
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
    readers += in
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

  /** Release in-memory rows, close the run readers a merge left open, delete the runs. */
  def clear(): Unit = this.synchronized {
    releaseMem()
    readers.foreach(_.close())
    readers.clear()
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

  /** Stable LSD radix sort of `rows` by the key columns `keyCols`, in the
    * order of [[compareKeys]]. No comparisons, no boxing.
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
