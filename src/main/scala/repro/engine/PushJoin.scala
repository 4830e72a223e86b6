package repro.engine

import java.io.File
import java.nio.ByteBuffer
import java.nio.channels.FileChannel
import java.nio.file.StandardOpenOption
import repro.core.PushJoin
import scala.collection.mutable.ArrayBuffer

/** One PUSH-JOIN (§4.3), a buffered distributed hash join, over its whole
  * lifecycle: each chunk of produced rows is routed to the machines owning
  * its join keys ([[route]]), by the worker that produced it, buffered flat
  * and spilled there per side, merged by key group ([[merge]]) and finally
  * dropped with its spill runs ([[clear]]).
  *
  * Each machine's buckets are split into [[parts]] = `workersPerMachine`
  * key parts, so that the machine's workers sort and merge them in
  * parallel; the rows of one key are in one part. Side `side` of part `p`
  * on machine `m` is `buffers(m)(2 · p + side)`. A part spills at its share
  * of the threshold, max(1, `spillThresholdRows` / parts), so a machine
  * side holds at most max(threshold, parts) rows in memory.
  */
final class JoinSpec(val op: PushJoin, cfg: EngineConfig, metrics: Metrics) {
  val parts: Int      = cfg.workersPerMachine
  private val buckets = cfg.machines * parts
  private val sides   = Array(op.left, op.right)
  private val keyCols = sides.map(side => op.key.map(side.col).toArray)
  private val widths  = sides.map(_.matched.length)
  private val pairs   = new Kernels.PairJoin(op)
  val buffers: Array[Array[JoinSideBuffer]] = Array.tabulate(cfg.machines, 2 * parts) { (m, j) =>
    val side = j % 2
    new JoinSideBuffer(widths(side), keyCols(side), math.max(1, cfg.spillThresholdRows / parts),
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
    val q = x / cfg.machines
    (x - q * cfg.machines) * parts + q % parts
  }

  /** Buffer `rows` of `side`, produced on machine `from`, at the machines
    * owning their join-key buckets: one pass groups them by bucket, in
    * order, into one flat array, then each bucket copies its rows in one
    * append. The rows that leave `from` are charged as pushed. Safe to
    * call from several threads.
    */
  def route(from: Int, side: Int, rows: collection.IndexedSeq[Array[Int]]): Unit = {
    val n     = rows.length
    val width = widths(side)
    val of    = new Array[Int](n)
    val fromLo = from * parts // machine from's buckets are fromLo until fromLo + parts
    val start = new Array[Int](buckets + 1) // bucket b's rows are flat rows start(b) until start(b + 1)
    var pushed = 0L
    var i = 0
    while (i < n) {
      val b = bucket(side, rows(i))
      of(i) = b
      start(b + 1) += 1
      if (b < fromLo || b >= fromLo + parts) pushed += Kernels.rowBytes(rows(i))
      i += 1
    }
    if (pushed > 0) metrics.bytesPushed.addAndGet(pushed)
    var b = 0
    while (b < buckets) { start(b + 1) += start(b); b += 1 }
    val next = start.clone()
    val flat = new Array[Int](n * width)
    i = 0
    while (i < n) {
      val row = rows(i)
      val at  = next(of(i)) * width
      var c   = 0
      while (c < width) { flat(at + c) = row(c); c += 1 }
      next(of(i)) += 1
      i += 1
    }
    b = 0
    while (b < buckets) {
      if (start(b) < start(b + 1))
        buffers(b / parts)(2 * (b % parts) + side).addAll(flat, start(b), start(b + 1))
      b += 1
    }
  }

  /** The merge join of part `part` of machine m's buckets. Both sides are
    * sorted here, on the calling thread; call once per part.
    */
  def merge(m: Int, part: Int): PartMerge =
    new PartMerge(buffers(m)(2 * part).sortedGroups(), keyCols(0),
                  buffers(m)(2 * part + 1).sortedGroups(), keyCols(1), pairs)

  /** The joined rows of part `part` of machine m's buckets, streaming. */
  def partIterator(m: Int, part: Int): Iterator[Array[Int]] = {
    val mg = merge(m, part)
    Iterator.continually(mg.nextRow()).takeWhile(_ != null)
  }

  /** The merge join over all of machine m's buckets: its parts' merges, one after another. */
  def resultIterator(m: Int): Iterator[Array[Int]] = Iterator.range(0, parts).flatMap(partIterator(m, _))

  /** Drop machine m's rows and spill runs, once its merge is done or abandoned. */
  def clear(m: Int): Unit = buffers(m).foreach(_.clear())

  def clear(): Unit = buffers.indices.foreach(clear)
}

/** The key-aligned merge join of one part's two key-sorted sides. Each side
  * is read one key group at a time, as a row range of a flat array, so
  * memory is bounded by the largest group; a pair of equal-key groups is
  * visited row pair by row pair on array offsets. Only a pair that joins
  * becomes a row ([[nextRow]]); [[count]] counts them and builds none.
  * Both read the same cursor, so a merge may be drained in slices.
  */
final class PartMerge private[engine] (l: JoinSideBuffer.KeyGroups, lKey: Array[Int],
                                       r: JoinSideBuffer.KeyGroups, rKey: Array[Int],
                                       pairs: Kernels.PairJoin) {
  import JoinSideBuffer.compareKeys
  // The next pair to visit is left row li and right row rj of the current
  // equal-key groups.
  private var li   = 0
  private var rj   = 0
  private var live = nextGroups()

  /** Advance the sides to their next common key. */
  private def align(): Boolean = {
    while (true) {
      val c = compareKeys(l.rows, l.from * l.width, lKey, r.rows, r.from * r.width, rKey)
      if (c == 0) { li = l.from; rj = r.from; return true }
      if (!(if (c < 0) l.next() else r.next())) return false
    }
    false // unreachable
  }

  /** Move on to the next pair of equal-key groups; false at the end. */
  private def nextGroups(): Boolean = l.next() && r.next() && align()

  /** True when every pair has been visited. */
  def done: Boolean = !live

  /** The next joined row, or null when none is left. */
  def nextRow(): Array[Int] = {
    while (live) {
      while (li < l.until) {
        while (rj < r.until) {
          val lo = li * l.width
          val ro = rj * r.width
          rj += 1
          if (pairs.joins(l.rows, lo, r.rows, ro)) return pairs.row(l.rows, lo, r.rows, ro)
        }
        rj = r.from
        li += 1
      }
      live = nextGroups()
    }
    null
  }

  /** The number of joining pairs among the next pairs visited, until at
    * least `budget` pairs are visited or none is left.
    */
  def count(budget: Long): Long = {
    var n    = 0L
    var seen = 0L
    while (live && seen < budget) {
      while (li < l.until && seen < budget) {
        seen += r.until - rj
        while (rj < r.until) {
          if (pairs.joins(l.rows, li * l.width, r.rows, rj * r.width)) n += 1
          rj += 1
        }
        rj = r.from
        li += 1
      }
      if (li == l.until) live = nextGroups()
    }
    n
  }
}

/** One side of a buffered distributed hash join (§4.3) on one machine.
  *
  * Producers append routed chunks of rows ([[addAll]], one lock per
  * chunk), copied into one growable flat `Int` array, `rowWidth` ints per
  * row. When the buffer reaches the threshold the rows are sorted by join
  * key into a flat array, which is spilled to disk as a run in one pass
  * ("external merge sort via the join keys"). [[sortedGroups]] merges the
  * in-memory rest with all runs into one key-ordered stream, read one key
  * group at a time as a row range of a flat array, so the join's memory
  * stays bounded by the buffer size regardless of input size. Spilled runs
  * and the in-memory rest are ordered by the same sort,
  * [[JoinSideBuffer.sortByKeys]].
  */
final class JoinSideBuffer(rowWidth: Int, keyCols: Array[Int], spillThresholdRows: Int,
                           machine: Int, metrics: Metrics) {
  import JoinSideBuffer._
  private var mem     = Array.emptyIntArray
  private var held    = 0 // rows in `mem`
  private val runs    = new ArrayBuffer[File]()
  private val readers = new ArrayBuffer[FileChannel]()
  private var total   = 0L
  // Per key column of the in-memory rows, sign bit flipped: the bits that
  // are 1 in every row and in some row. Bits outside their difference
  // cannot change the order, and the sort skips them.
  private val keySame = Array.fill(keyCols.length)(-1)
  private val keyAny  = new Array[Int](keyCols.length)

  /** Append rows [from, until) of the flat `rows`, `rowWidth` ints each,
    * under one lock: the buffer spills as soon as it holds
    * `spillThresholdRows` rows, and the machine's memory is charged once
    * per spill and once for the rest.
    */
  def addAll(rows: Array[Int], from: Int, until: Int): Unit = this.synchronized {
    var i = from
    while (i < until) {
      val k = math.min(until - i, spillThresholdRows - held) // rows up to the next spill
      if ((held + k) * rowWidth > mem.length)
        mem = java.util.Arrays.copyOf(mem, rowWidth * math.min(2 * held, spillThresholdRows).max(held + k))
      System.arraycopy(rows, i * rowWidth, mem, held * rowWidth, k * rowWidth)
      var c = 0
      while (c < keyCols.length) {
        var same = keySame(c)
        var any  = keyAny(c)
        var at   = held * rowWidth + keyCols(c)
        while (at < (held + k) * rowWidth) { val v = mem(at) ^ Int.MinValue; same &= v; any |= v; at += rowWidth }
        keySame(c) = same
        keyAny(c) = any
        c += 1
      }
      held += k
      i += k
      metrics.memAdd(machine, 4L * rowWidth * k)
      if (held >= spillThresholdRows) spill()
    }
    total += until - from
  }

  def add(row: Array[Int]): Unit = addAll(row, 0, 1)

  def rows: Long = this.synchronized(total)

  private def sortHeld(): Array[Int] = sortByKeys(mem, held, rowWidth, keyCols, keySame, keyAny)

  private def spill(): Unit = {
    val sorted = sortHeld()
    val f      = File.createTempFile(s"huge-join-m$machine", ".run")
    runs += f
    val out = FileChannel.open(f.toPath, StandardOpenOption.WRITE)
    try {
      val bytes = ByteBuffer.allocate(4 * IoInts)
      val ints  = bytes.asIntBuffer()
      var off   = 0
      while (off < sorted.length) {
        val len = math.min(IoInts, sorted.length - off)
        ints.clear()
        ints.put(sorted, off, len)
        bytes.clear().limit(4 * len)
        while (bytes.hasRemaining) out.write(bytes)
        off += len
      }
    } finally out.close()
    metrics.spilledBytes.addAndGet(4L * sorted.length)
    releaseMem()
  }

  /** All buffered rows (memory and spilled runs) in key order, one key
    * group at a time. The in-memory rows are sorted here, in place of the
    * buffer. Call once, after all producers are done.
    */
  private[engine] def sortedGroups(): KeyGroups = this.synchronized {
    mem = sortHeld()
    if (runs.isEmpty) return new SortedRows(mem, held, rowWidth, keyCols)
    val memRun  = if (held == 0) Nil else List(new Cursor(mem, held * rowWidth) { def fill() = false })
    val cursors = memRun ++ runs.map { f =>
      val in = FileChannel.open(f.toPath, StandardOpenOption.READ)
      readers += in
      new RunCursor(in, rowWidth)
    }
    new MergedRuns(cursors.filter(_.end > 0), rowWidth, keyCols)
  }

  /** Key-ordered iterator over all buffered rows, each a new array (for
    * tests and tools; the join reads [[sortedGroups]]). Call once, after
    * all producers are done.
    */
  def sortedIterator(): Iterator[Array[Int]] = {
    val g = sortedGroups()
    Iterator.continually(g.next()).takeWhile(identity).flatMap { _ =>
      Array.tabulate(g.until - g.from) { i =>
        java.util.Arrays.copyOfRange(g.rows, (g.from + i) * rowWidth, (g.from + i + 1) * rowWidth)
      }.iterator
    }
  }

  /** Release in-memory rows, close the run readers a merge left open, delete the runs. */
  def clear(): Unit = this.synchronized {
    releaseMem()
    mem = Array.emptyIntArray
    readers.foreach(_.close())
    readers.clear()
    runs.foreach(_.delete())
    runs.clear()
  }

  private def releaseMem(): Unit = {
    metrics.memAdd(machine, -4L * rowWidth * held)
    held = 0
    java.util.Arrays.fill(keySame, -1)
    java.util.Arrays.fill(keyAny, 0)
  }
}

object JoinSideBuffer {

  /** Ints per spill write and per run read. */
  private val IoInts = 1 << 13

  /** Lexicographic comparison of two rows on the given key columns. */
  def compareKeys(a: Array[Int], aCols: Array[Int], b: Array[Int], bCols: Array[Int]): Int =
    compareKeys(a, 0, aCols, b, 0, bCols)

  /** [[compareKeys]] of the flat rows that start at `a(aOff)` and `b(bOff)`. */
  def compareKeys(a: Array[Int], aOff: Int, aCols: Array[Int], b: Array[Int], bOff: Int, bCols: Array[Int]): Int = {
    var i = 0
    while (i < aCols.length) {
      val c = Integer.compare(a(aOff + aCols(i)), b(bOff + bCols(i)))
      if (c != 0) return c
      i += 1
    }
    0
  }

  /** A key-sorted side read one key group at a time: after [[next]]
    * returns true, the group is rows [from, until) of the flat `rows`,
    * `width` ints per row.
    */
  private[engine] abstract class KeyGroups(val width: Int) {
    var rows: Array[Int] = Array.emptyIntArray
    var from  = 0
    var until = 0
    def next(): Boolean
  }

  /** The groups of `n` sorted rows, as ranges of their own array. */
  private final class SortedRows(sorted: Array[Int], n: Int, width: Int, keyCols: Array[Int])
      extends KeyGroups(width) {
    rows = sorted
    def next(): Boolean = {
      from = until
      if (from >= n) return false
      until += 1
      while (until < n && compareKeys(rows, until * width, keyCols, rows, from * width, keyCols) == 0) until += 1
      true
    }
  }

  /** Sorted flat rows read in blocks: the current row starts at `buf(off)`,
    * and the block ends at `buf(end)`; `fill` reads the next block.
    */
  private abstract class Cursor(var buf: Array[Int], var end: Int) {
    var off = 0
    def fill(): Boolean
    def advance(width: Int): Boolean = { off += width; off < end || fill() }
  }

  /** A spilled run, read in blocks of whole rows; closed at its end. */
  private final class RunCursor(in: FileChannel, width: Int)
      extends Cursor(new Array[Int](width * math.max(1, IoInts / width)), 0) {
    private val bytes = ByteBuffer.allocate(4 * buf.length)
    private val ints  = bytes.asIntBuffer()
    fill()

    def fill(): Boolean = {
      bytes.clear()
      while (bytes.hasRemaining && in.read(bytes) >= 0) {}
      end = bytes.position() / 4
      ints.clear()
      ints.get(buf, 0, end)
      off = 0
      if (end == 0) in.close()
      end > 0
    }
  }

  /** The groups of the k-way merge of sorted cursors, each copied into one
    * growable flat array.
    */
  private final class MergedRuns(cursors: Seq[Cursor], width: Int, keyCols: Array[Int])
      extends KeyGroups(width) {
    private val heap = new java.util.PriorityQueue[Cursor](math.max(1, cursors.size),
      (x, y) => compareKeys(x.buf, x.off, keyCols, y.buf, y.off, keyCols))
    cursors.foreach(heap.add)

    def next(): Boolean = {
      until = 0
      while (!heap.isEmpty &&
             (until == 0 || compareKeys(heap.peek.buf, heap.peek.off, keyCols, rows, 0, keyCols) == 0)) {
        val c = heap.poll()
        if ((until + 1) * width > rows.length) rows = java.util.Arrays.copyOf(rows, width * (2 * until + 1))
        System.arraycopy(c.buf, c.off, rows, until * width, width)
        until += 1
        if (c.advance(width)) heap.add(c)
      }
      until > 0
    }
  }

  /** Stable LSD radix sort of the first `n` rows of the flat `rows`
    * (`width` ints each) by the key columns `keyCols`, in the order of
    * [[compareKeys]], into a new flat array. No comparisons, no boxing.
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
  private def sortByKeys(rows: Array[Int], n: Int, width: Int, keyCols: Array[Int],
                         same: Array[Int], any: Array[Int]): Array[Int] = {
    val k     = keyCols.length
    val lo    = Array.tabulate(k)(c => Integer.numberOfTrailingZeros(same(c) ^ any(c)))
    val bitsOf = Array.tabulate(k)(c => 32 - Integer.numberOfLeadingZeros(same(c) ^ any(c)) - lo(c) max 0)

    var a = new Array[Long](n)
    var b = new Array[Long](n)
    var i = 0
    while (i < n) { a(i) = i; i += 1 }
    var hist = new Array[Int](0)
    var last = k - 1
    while (last >= 0 && n > 1) {
      var first = last
      var bits  = bitsOf(last)
      while (first > 0 && bits + bitsOf(first - 1) <= 32) { first -= 1; bits += bitsOf(first) }
      var packedSame = -1
      var packedAny  = 0
      i = 0
      while (i < n) {
        val idx = a(i).toInt
        val r   = idx * width
        var key = 0
        var c   = first
        while (c <= last) {
          if (bitsOf(c) > 0)
            key = (key << bitsOf(c)) | (((rows(r + keyCols(c)) ^ Int.MinValue) >>> lo(c)) & (-1 >>> (32 - bitsOf(c))))
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
    val out = new Array[Int](n * width)
    i = 0
    var at = 0
    while (i < n) {
      val from = a(i).toInt * width
      var c    = 0
      while (c < width) { out(at + c) = rows(from + c); c += 1 }
      at += width
      i += 1
    }
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
