package repro.engine

import repro.core.CommMode
import scala.collection.immutable.ArraySeq
import scala.collection.mutable.ArrayBuffer

/** One machine's access to neighbour lists (§4.4): a vertex it owns is
  * read from its partition; any other vertex (every vertex with BENU's
  * external store) goes through its cache, and each miss is pulled and
  * charged here.
  */
final class Adjacency(m: Int, pg: PartitionedGraph, cache: NbrCache,
                      externalStore: Boolean, metrics: Metrics) {

  private def isLocal(v: Int): Boolean = !externalStore && pg.owner(v) == m

  /** GetNbrs for one vertex the cache lacks; the list is then cached. */
  private def pull(v: Int): Array[Int] = {
    val ns = pg.serveNbrs(v)
    metrics.bytesPulled.addAndGet(4L + 4L * ns.length)
    cache.insert(v, ns)
    ns
  }

  /** A pull round of `missed` vertices held by `owners` machines: one bulk
    * RPC per owner, or one store access per vertex. Store latency is
    * client-side compute (kvAccesses), not RPC time — the paper's
    * observation that BENU's store overhead inflates T_R, not T_C.
    */
  private def chargeRound(missed: Int, owners: Int): Unit = {
    metrics.cacheMisses.addAndGet(missed)
    if (externalStore) metrics.kvAccesses.addAndGet(missed)
    else metrics.rpcs.addAndGet(owners)
  }

  /** True from a batch's [[fetch]] until its [[release]]. */
  private var scopeOpen = false

  /** Which machines own a vertex of the current pull round. */
  private val ownerSeen = new Array[Boolean](pg.k)

  /** The fetch stage of a two-stage cache (single writer: the machine's
    * scheduler thread): make every remote pivot of `batch` resident and
    * sealed, and open the batch's scope that [[release]] closes. Scopes do
    * not nest: one batch at a time holds its pivots. A per-access cache
    * (Cncr-LRU) skips it and pulls in [[read]].
    *
    * The remote pivots are collected row by row, column by column, into a
    * [[Kernels.IntSet]]; a pivot equal to the previous row's in the same
    * column is already there and is skipped. They are then sealed (hits)
    * or pulled and sealed (misses) in the set's table order, which fixes
    * the LRBU order the batch leaves behind. The misses are one round of
    * one bulk RPC per owner.
    */
  def fetch(batch: Array[Array[Int]], pivotCols: Array[Int]): Unit = if (cache.twoStage) {
    if (scopeOpen) throw new IllegalStateException(s"machine $m fetched a batch before releasing the last")
    scopeOpen = true
    val t0     = System.nanoTime()
    val remote = new Kernels.IntSet(batch.length)
    var b = 0
    while (b < batch.length) {
      val row  = batch(b)
      val last = if (b == 0) null else batch(b - 1)
      var i = 0
      while (i < pivotCols.length) {
        val c = pivotCols(i)
        val v = row(c)
        if ((last == null || last(c) != v) && !isLocal(v)) remote.add(v)
        i += 1
      }
      b += 1
    }
    val missed  = new Array[Int](remote.size)
    var nMissed = 0
    var hits    = 0L
    remote.foreach { v =>
      if (cache.contains(v)) { cache.seal(v); hits += 1 }
      else { missed(nMissed) = v; nMissed += 1 }
    }
    metrics.cacheHits.addAndGet(hits)
    java.util.Arrays.fill(ownerSeen, false)
    var owners = 0
    var j = 0
    while (j < nMissed) {
      val v = missed(j)
      val o = pg.owner(v)
      if (!ownerSeen(o)) { ownerSeen(o) = true; owners += 1 }
      pull(v)
      cache.seal(v) // every vertex used by this batch stays resident
      j += 1
    }
    chargeRound(nMissed, owners)
    metrics.fetchNanos.addAndGet(System.nanoTime() - t0)
  }

  /** N(v) in the intersect stage, called by all workers; `owner(v)` is
    * computed once per read. After [[fetch]] a two-stage cache is read
    * lock-free, and a vertex it lacks means the fetch stage broke its
    * contract; a per-access cache pulls each miss here, one round per
    * vertex.
    */
  val read: Int => Array[Int] =
    if (cache.twoStage) v => if (isLocal(v)) pg.g.neighbours(v) else cache.get(v) match {
      case null => throw new IllegalStateException(s"N($v) is not resident on machine $m after the fetch stage")
      case ns   => ns
    }
    else v => if (isLocal(v)) pg.g.neighbours(v) else cache.get(v) match {
      case null => chargeRound(1, 1); pull(v)
      case ns   => metrics.cacheHits.incrementAndGet(); ns
    }

  /** End of a batch's scope: its pivots become evictable again. The cache
    * may thus exceed its capacity by one batch's remote vertices (§4.4).
    */
  def release(): Unit = if (cache.twoStage) {
    scopeOpen = false
    cache.release()
  }
}

/** PULL-EXTEND (Algorithm 4) on the machine of `pool`. A batch runs the
  * fetch stage once on the machine's [[Adjacency]]; its intersect stage
  * then runs on the [[WorkerPool]] in ranges of bounded expected
  * expansion, and each range's output is emitted (never into another
  * extend: the batch's fetch scope is still open) before the next starts,
  * or handed to the chain's sink by the workers that made it.
  * An extend whose plan join pushes (BiGJoin) instead charges each row's
  * trip to its pivots' owners and intersects there.
  */
final class Extender(val pool: WorkerPool, pg: PartitionedGraph, cfg: EngineConfig,
                     metrics: Metrics, stopped: () => Boolean) {

  private val adj = new Adjacency(pool.machine, pg, NbrCache(cfg.cacheKind, cfg.cacheCapacityEntries),
                                  cfg.externalStore, metrics)
  /** The most rows one step of Algorithm 5 may add at once: an intersect
    * range's expected expansion, and a join-source refill.
    */
  val maxExpansion: Long = math.max(cfg.batchSize.toLong * 8, 32768L)

  /** This machine's local vertices in scan order, sorted once per run. */
  lazy val scanOrder: Array[Int] = pg.scanOrder(pool.machine)

  /** Process one input batch, handing each intersect range's output to
    * `emit`: with `onWorkers`, each worker its own share, on its thread;
    * else the calling thread all of it.
    */
  def apply(ex: Kernels.Extend, batch: Array[Array[Int]],
            emit: ArrayBuffer[Array[Int]] => Unit, onWorkers: Boolean): Unit = ex.op.comm match {
    case CommMode.Pulling =>
      adj.fetch(batch, ex.pivotCols)
      intersect(ex, batch, adj.read, emit, onWorkers)
      adj.release()
    case CommMode.Pushing =>
      // Each partial result travels to the owner of every extension pivot
      // in turn; the intersection itself is then local.
      val pivotCols = ex.pivotCols
      var b = 0
      while (b < batch.length) {
        val row  = batch(b)
        var prev = pool.machine
        var i    = 0
        while (i < pivotCols.length) {
          val o = pg.owner(row(pivotCols(i)))
          if (o != prev) { metrics.bytesPushed.addAndGet(Kernels.rowBytes(row)); prev = o }
          i += 1
        }
        b += 1
      }
      intersect(ex, batch, pg.serveNbrs, emit, onWorkers)
  }

  /** The intersect stage of `batch`. A row's *expected expansion* is its
    * smallest pivot degree (an upper bound on its intersection size), or 1
    * for a verify, which keeps at most its row. The stage is cut into
    * ranges whose expansion stays bounded: one 20k-degree hub row can
    * otherwise blow a 4096-row batch up to 10^8 output rows in a single
    * burst, stalling the window and overflowing memory far beyond the
    * queue bound. Within a range the pool's chunks weigh `chunkSize`
    * expected rows or more, so a heavy range fills every worker.
    */
  private def intersect(ex: Kernels.Extend, batch: Array[Array[Int]], nbrsOf: Int => Array[Int],
                        emit: ArrayBuffer[Array[Int]] => Unit, onWorkers: Boolean): Unit = {
    val weights = expansion(ex, batch)
    var start = 0
    var acc   = 0L
    var i     = 0
    while (i < batch.length) {
      acc += weights(i)
      i += 1
      if (acc >= maxExpansion || i == batch.length) {
        val range = if (start == 0 && i == batch.length) batch
                    else java.util.Arrays.copyOfRange(batch, start, i)
        val from  = start
        val chunk = math.max(cfg.chunkSize.toLong, acc / (4 * cfg.workersPerMachine))
        val rows  = pool.runWeighted(ArraySeq.unsafeWrapArray(range), r => weights(from + r), chunk, stopped,
                                     if (onWorkers) emit else null) { (row, out) => ex(row, nbrsOf, out) }
        if (rows.nonEmpty) emit(rows)
        start = i
        acc = 0L
      }
    }
  }

  private def expansion(ex: Kernels.Extend, batch: Array[Array[Int]]): Array[Int] = {
    val weights = new Array[Int](batch.length)
    if (ex.op.verify) java.util.Arrays.fill(weights, 1)
    else {
      val cols = ex.pivotCols
      var b = 0
      while (b < batch.length) {
        val row    = batch(b)
        var minDeg = Int.MaxValue
        var pc     = 0
        while (pc < cols.length) {
          minDeg = math.min(minDeg, pg.g.degree(row(cols(pc)))) // degree = graph metadata
          pc += 1
        }
        weights(b) = minDeg
        b += 1
      }
    }
    weights
  }
}
