package hugebench

import repro.core.{PushJoin, ScanEdge}
import repro.engine._
import repro.graph.{DataGraph, Intersect}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Kernel microbenchmarks on inputs drawn from the workload's graph. Each
  * reports the median over several timed rounds, after one untimed round.
  */
final class Micro(g: DataGraph, cfg: EngineConfig, seed: Long) {
  private val rng   = new Random(seed ^ 0x5DEECE66DL)
  @volatile private var sink = 0L

  private val rounds = 7

  /** Median over rounds of (round nanoseconds / ops). `body` returns a
    * value folded into a sink so the work cannot be optimised away.
    */
  private def nsPerOp(ops: Long)(body: => Long): Double = {
    sink += body
    Stats.median((1 to rounds).map { _ =>
      val t0 = System.nanoTime()
      sink += body
      (System.nanoTime() - t0).toDouble / ops
    })
  }

  // Degree-proportional vertex draws: an endpoint of a uniformly random
  // directed edge, which is how pivots of partial results are distributed.
  private val offsets: Array[Long] = g.adj.scanLeft(0L)(_ + _.length).toArray
  private def randomEdge(): (Int, Int) = {
    val e = (rng.nextDouble() * offsets.last).toLong
    var i = java.util.Arrays.binarySearch(offsets, e)
    if (i < 0) i = -i - 2
    while (offsets(i + 1) <= e) i += 1 // skip isolated vertices
    (i, g.adj(i)((e - offsets(i)).toInt))
  }
  private def pivot(): Int = randomEdge()._2

  /** `Intersect.sorted` on the neighbour lists of sampled edges' endpoints,
    * split by the path it takes (merge, or gallop at >= 16x size ratio).
    */
  def intersect(): (Double, Double) = {
    val merge  = ArrayBuffer.empty[(Array[Int], Array[Int])]
    val gallop = ArrayBuffer.empty[(Array[Int], Array[Int])]
    var tries  = 0
    while ((merge.length < 4096 || gallop.length < 4096) && tries < 400_000) {
      tries += 1
      val (u, v) = randomEdge()
      val (a, b) = (g.adj(u), g.adj(v))
      val skewed = a.length.toLong * 16 < b.length || b.length.toLong * 16 < a.length
      if (skewed && gallop.length < 4096) gallop += ((a, b))
      else if (!skewed && merge.length < 4096) merge += ((a, b))
    }
    def time(pairs: Seq[(Array[Int], Array[Int])]) =
      if (pairs.isEmpty) 0.0
      else nsPerOp(pairs.length) { pairs.foldLeft(0L) { case (s, (a, b)) => s + Intersect.sorted(a, b).length } }
    (time(merge.toSeq), time(gallop.toSeq))
  }

  /** LRBU's fetch-stage cycle at the workload's capacity: per pivot,
    * `contains` then `seal` (hit) or `insert` + `seal` (miss); `release`
    * after each batch of 512 pivots. Nanoseconds per pivot.
    */
  def lrbu(): Double = {
    val cache   = NbrCache(cfg.cacheKind, cfg.cacheCapacityEntries)
    val batches = Array.fill(64)(Array.fill(512)(pivot()))
    nsPerOp(64L * 512) {
      var hits = 0L
      for (b <- batches) {
        for (v <- b) {
          if (cache.contains(v)) hits += 1 else cache.insert(v, g.adj(v))
          cache.seal(v)
        }
        cache.release()
      }
      hits
    }
  }

  /** `Kernels.IntSet.add` of one batch's pivots, as the fetch stage dedups them. */
  def intSetAdd(): Double = {
    val pivots = Array.fill(cfg.batchSize * 16)(pivot())
    nsPerOp(pivots.length) {
      var n = 0L
      for (b <- pivots.grouped(cfg.batchSize)) {
        val set = new Kernels.IntSet(b.length)
        b.foreach(set.add)
        n += set.size
      }
      n
    }
  }

  private def edgeRows(n: Int): Array[Array[Int]] =
    Array.fill(n) { val (u, v) = randomEdge(); Array(u, v) }

  /** `BatchQueue` enqueue + `isFull` + `tryDequeue` of one full batch.
    * Nanoseconds per batch round trip.
    */
  def batchQueue(): Double = {
    val metrics = new Metrics(cfg.machines, cfg.net)
    val q       = new BatchQueue(cfg.queueCapacityRows, 0, metrics)
    val batches = Array.fill(16)(edgeRows(cfg.batchSize))
    nsPerOp(16L * 64) {
      var n = 0L
      for (_ <- 0 until 64; b <- batches) {
        q.enqueue(b)
        if (!q.isFull) n += q.tryDequeue().length
      }
      n
    }
  }

  /** `WorkerPool.run` over one batch with a trivial per-row body, i.e. its
    * fork/steal/join overhead. Microseconds per batch.
    */
  def poolBatch(): Double = {
    val metrics = new Metrics(cfg.machines, cfg.net)
    val pool    = new WorkerPool(0, cfg.workersPerMachine, metrics)
    val rows    = scala.collection.immutable.ArraySeq.unsafeWrapArray(edgeRows(cfg.batchSize))
    try nsPerOp(200) {
      var n = 0L
      for (_ <- 0 until 200) n += pool.run(rows, cfg.chunkSize)((row, out) => out += row).length
      n
    } / 1e3
    finally pool.shutdown()
  }

  /** A PUSH-JOIN of two edge relations on their shared vertex (a 2-path),
    * both sides sampled from the graph.
    */
  private val twoPath = PushJoin(ScanEdge(0, 1, Vector()), ScanEdge(1, 2, Vector()), Vector())
  private val joinRows = 40_000

  private def filledJoin(spillThreshold: Int): JoinSpec = {
    val metrics = new Metrics(1, cfg.net)
    val spec    = new JoinSpec(twoPath, cfg.copy(machines = 1, spillThresholdRows = spillThreshold), metrics)
    joinLeft.foreach(spec.buffers(0)(0).add)
    joinRight.foreach(spec.buffers(0)(1).add)
    spec
  }
  private lazy val joinLeft  = edgeRows(joinRows)
  private lazy val joinRight = edgeRows(joinRows)

  /** (JoinSideBuffer.add ns per row, merge-join drain ns per input row,
    * the same with spilling every 4096 rows: add + drain ns per input row).
    */
  def join(): (Double, Double, Double) = {
    val add = nsPerOp(2L * joinRows) { filledJoin(Int.MaxValue).buffers(0)(0).rows }
    val merge = Stats.median((0 to rounds).map { _ =>
      val spec = filledJoin(Int.MaxValue)
      val t0   = System.nanoTime()
      sink += spec.resultIterator(0).size
      (System.nanoTime() - t0).toDouble / (2L * joinRows)
    }.tail)
    val spill = Stats.median((0 to 3).map { _ =>
      val t0   = System.nanoTime()
      val spec = filledJoin(4096)
      sink += spec.resultIterator(0).size
      val ns = (System.nanoTime() - t0).toDouble / (2L * joinRows)
      spec.buffers(0).foreach(_.clear())
      ns
    }.tail)
    (add, merge, spill)
  }

  /** `Kernels.PairJoin.tryJoin` on key-matched (left, right) pairs. */
  def pairJoin(): Double = {
    val pj    = new Kernels.PairJoin(twoPath)
    val pairs = Array.fill(8192) {
      val (u, v) = randomEdge()
      val w      = g.adj(v)(rng.nextInt(g.adj(v).length))
      (Array(u, v), Array(v, w))
    }
    nsPerOp(pairs.length) {
      var n = 0L
      for ((l, r) <- pairs) if (pj.tryJoin(l, r) != null) n += 1
      n
    }
  }
}
