package repro.engine

import java.util.concurrent.CyclicBarrier
import java.util.concurrent.atomic.AtomicReference
import repro.core._
import scala.collection.mutable.ArrayBuffer

/** Engine configuration — one per "system" (HUGE and every baseline run on
  * the same engine with different knobs, the paper's plug-in story).
  *
  * @param queueCapacityRows fixed capacity of every operator output queue
  *        (Algorithm 5): small => DFS-style, huge => BFS-style scheduling
  * @param pushExtends      BiGJoin-native: extends *push* the partial
  *        results machine-to-machine instead of pulling adjacency
  * @param externalStore    BENU-native: all adjacency (even local) is read
  *        through an external KV store — per-access RPC + modelled latency
  * @param interStealing    inter-machine StealWork (§5.3)
  */
final case class EngineConfig(
    machines: Int = 4,
    workersPerMachine: Int = 2,
    batchSize: Int = 2048,
    queueCapacityRows: Long = 200_000,
    cacheKind: String = "lrbu",
    cacheCapacityEntries: Int = 50_000,
    pushExtends: Boolean = false,
    externalStore: Boolean = false,
    spillThresholdRows: Int = 2_000_000,
    interStealing: Boolean = true,
    chunkSize: Int = 512,
    timeLimitSec: Double = Double.PositiveInfinity,
    net: NetworkModel = NetworkModel(),
)

/** Execution structure (§5.4): the operator tree is cut at PUSH-JOINs into
  * linear chains; chains run as stages in topological order with a global
  * barrier between stages. Every operator of a stage is compiled once into
  * its [[Kernels]] row kernel.
  */
sealed trait ChainSource
final case class ScanSrc(conds: Kernels.Conds) extends ChainSource
final case class JoinSrc(spec: JoinSpec)       extends ChainSource

sealed trait ChainSink
case object CountSink                                 extends ChainSink
final case class JoinSink(spec: JoinSpec, side: Int)  extends ChainSink

final case class Stage(source: ChainSource, exts: Vector[Kernels.Extend], sink: ChainSink)

/** Shared state of one PUSH-JOIN: per-machine, per-side spill buffers. */
final class JoinSpec(val op: PushJoin, cfg: EngineConfig, metrics: Metrics) {
  val leftKeyCols: Array[Int]  = op.key.map(op.left.col).toArray
  val rightKeyCols: Array[Int] = op.key.map(op.right.col).toArray
  private val pairs            = new Kernels.PairJoin(op)
  val buffers: Array[Array[JoinSideBuffer]] = Array.tabulate(cfg.machines, 2) { (m, side) =>
    val width = if (side == 0) op.left.matched.length else op.right.matched.length
    val keys  = if (side == 0) leftKeyCols else rightKeyCols
    new JoinSideBuffer(width, keys, cfg.spillThresholdRows, m, metrics)
  }

  /** Machine owning a row's join-key bucket. */
  def route(row: Array[Int], side: Int): Int = {
    val cols = if (side == 0) leftKeyCols else rightKeyCols
    var h = 17
    var i = 0
    while (i < cols.length) { h = h * 31 + row(cols(i)) * 0x9E3779B9; i += 1 }
    val m = (h >>> 8) % cfg.machines
    m
  }

  /** Key-aligned merge join over this machine's buckets. Fully streaming:
    * key groups are loaded (bounded by the largest group) but the
    * cross-product of a group is emitted row-by-row, never materialised.
    */
  def resultIterator(m: Int): Iterator[Array[Int]] = {
    val li = buffers(m)(0).sortedIterator().buffered
    val ri = buffers(m)(1).sortedIterator().buffered
    new Iterator[Array[Int]] {
      private val lg = new ArrayBuffer[Array[Int]]()
      private val rg = new ArrayBuffer[Array[Int]]()
      private var i = 0; private var j = 0
      private var nextRow: Array[Int] = advance()

      private def loadGroups(): Boolean = {
        lg.clear(); rg.clear(); i = 0; j = 0
        while (li.hasNext && ri.hasNext) {
          val c = Kernels.compareKeys(li.head, leftKeyCols, ri.head, rightKeyCols)
          if (c < 0) li.next()
          else if (c > 0) ri.next()
          else {
            val keyRow = li.head
            while (li.hasNext && Kernels.compareKeys(li.head, leftKeyCols, keyRow, leftKeyCols) == 0)
              lg += li.next()
            while (ri.hasNext && Kernels.compareKeys(ri.head, rightKeyCols, keyRow, leftKeyCols) == 0)
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
}

object Stages {
  /** Cut the operator tree at PUSH-JOINs; topological order (left, right,
    * then the join's own chain) — §5.4's DAG of subgraphs.
    */
  def compile(root: Op, cfg: EngineConfig, metrics: Metrics): Vector[Stage] = {
    def decompose(op: Op, sink: ChainSink): Vector[Stage] = {
      var exts = List.empty[Kernels.Extend]
      var cur  = op
      while (cur.isInstanceOf[PullExtend]) {
        val e = cur.asInstanceOf[PullExtend]
        exts = new Kernels.Extend(e) :: exts
        cur = e.input
      }
      (cur: @unchecked) match {
        case s: ScanEdge => Vector(Stage(ScanSrc(new Kernels.Conds(s)), exts.toVector, sink))
        case j: PushJoin =>
          val spec = new JoinSpec(j, cfg, metrics)
          decompose(j.left, JoinSink(spec, 0)) ++
            decompose(j.right, JoinSink(spec, 1)) :+
            Stage(JoinSrc(spec), exts.toVector, sink)
      }
    }
    decompose(root, CountSink)
  }
}

/** The HUGE compute engine: k simulated machines, each with an Algorithm-5
  * scheduler thread, a worker pool with intra-machine stealing, an LRBU (or
  * ablation) cache, and modelled network accounting. See DESIGN.md.
  */
object Engine {

  def run(dataflow: Op, pg: PartitionedGraph, cfg: EngineConfig): Metrics = {
    require(pg.k == cfg.machines, "partition count must equal machine count")
    val metrics = new Metrics(cfg.machines, cfg.net)
    val stages  = Stages.compile(dataflow, cfg, metrics)
    val k       = cfg.machines

    val caches  = Array.fill(k)(NbrCache(cfg.cacheKind, cfg.cacheCapacityEntries))
    val pools   = Array.tabulate(k)(m => new WorkerPool(m, cfg.workersPerMachine, metrics))
    val barrier = new CyclicBarrier(k)
    val failure = new AtomicReference[Throwable]()
    @volatile var aborted = false
    val deadline = if (cfg.timeLimitSec.isInfinity) Long.MaxValue
                   else System.nanoTime() + (cfg.timeLimitSec * 1e9).toLong

    val boards = stages.map(s => new StageBoard(s, k))

    val t0 = System.nanoTime()
    val threads = new Array[Thread](k)
    for (m <- 0 until k) threads(m) = new Thread(() => {
      try {
        for ((stage, si) <- stages.zipWithIndex) {
          val board  = boards(si)
          val runner = new MachineRunner(m, stage, board, pg, caches(m), pools(m),
                                         cfg, metrics, () => aborted,
                                         () => { aborted = true })
          runner.deadlineNanos = deadline
          board.register(m, runner)
          barrier.await() // all runners registered
          if (!aborted) runner.runStage()
          barrier.await() // stage complete everywhere
          if (m == 0) stage.source match {
            case JoinSrc(spec) => spec.buffers.foreach(_.foreach(_.clear()))
            case _             =>
          }
          barrier.await()
        }
      } catch {
        // The first failure stops the run; the peers it interrupts leave
        // their barrier, pool or idle wait with exceptions of their own.
        case e: Throwable =>
          aborted = true
          if (failure.compareAndSet(null, e))
            threads.foreach(t => if (t ne Thread.currentThread()) t.interrupt())
      }
    }, s"machine-$m")
    threads.foreach(_.start())
    threads.foreach(_.join())
    pools.foreach(_.shutdown())
    if (failure.get != null) throw failure.get
    metrics.measuredWallSec = (System.nanoTime() - t0) / 1e9
    caches.foreach { c =>
      metrics.cacheHits.addAndGet(c.hits.get)
      metrics.cacheMisses.addAndGet(c.misses.get)
    }
    metrics
  }

  /** Convenience: build the dataflow for q under `plan` and run it. */
  def runPlan(plan: PlanNode, q: repro.graph.QueryGraph, pg: PartitionedGraph,
              cfg: EngineConfig, symmetry: Boolean = true): Metrics = {
    val conds = if (symmetry) q.symmetryConditions else Vector.empty
    run(Dataflow.fromPlan(plan, q, conds), pg, cfg)
  }
}

/** Registry of the k runners of the current stage (for inter-machine
  * stealing and termination detection).
  */
final class StageBoard(val stage: Stage, k: Int) {
  private val runners = new Array[MachineRunner](k)
  val idle            = Array.fill(k)(false)
  def register(m: Int, r: MachineRunner): Unit = runners(m) = r
  def apply(m: Int): MachineRunner = runners(m)
  def allDone: Boolean = this.synchronized {
    (0 until k).forall { m =>
      idle(m) && runners(m) != null && runners(m).ownWorkExhausted
    }
  }
}

/** One machine's execution of one stage: the Algorithm-5 scheduler walk,
  * source generation, two-stage PULL-EXTENDs, sinks, and StealWork.
  */
final class MachineRunner(val m: Int, stage: Stage, board: StageBoard,
                          pg: PartitionedGraph, cache: NbrCache, pool: WorkerPool,
                          cfg: EngineConfig, metrics: Metrics,
                          isAborted: () => Boolean, abort: () => Unit) {

  var deadlineNanos: Long = Long.MaxValue

  private val e = stage.exts.length
  val queues: Array[BatchQueue] =
    Array.fill(e)(new BatchQueue(cfg.queueCapacityRows, m, metrics))

  // ---- source state -------------------------------------------------------
  private var sourceDone = false
  // Local vertices in multiplicative-hash order: with hub-first vertex ids
  // (our generators place hubs at low ids) a sequential scan would start
  // with the most expensive pivots; hashing spreads them evenly, which is
  // what a random partition of a real graph looks like.
  private val scanLocal: Array[Int] = stage.source match {
    case ScanSrc(_) => pg.localVertices(m).toArray.sortBy(v => v * 0x9E3779B9)
    case _          => Array.emptyIntArray
  }
  private var scanVertexIdx = 0
  private var scanNbrIdx    = 0
  private var joinIter: Iterator[Array[Int]] = null

  def ownWorkExhausted: Boolean = sourceDone && queues.forall(_.isEmpty)

  private def checkDeadline(): Unit =
    if (System.nanoTime() > deadlineNanos) abort()

  // ---- Algorithm 5 --------------------------------------------------------
  def runStage(): Unit = {
    while (!isAborted()) {
      val worked = runOwnWork()
      if (!worked) {
        val stole = cfg.interStealing && trySteal()
        if (!stole) {
          board.idle(m) = true
          if (board.allDone) return
          Thread.sleep(0, 200_000)
          board.idle(m) = false
        } else board.idle(m) = false
      }
    }
  }

  /** The DFS/BFS-adaptive walk: returns true if any batch was processed. */
  private def runOwnWork(): Boolean = {
    var worked = false
    var p      = 0
    var done   = false
    while (!done && !isAborted()) {
      checkDeadline()
      if (p == 0) {
        if (!sourceDone) { worked = generateSource() || worked }
        if (e == 0) done = true
        else p = 1
      } else {
        val qi = p - 1
        if (queues(qi).isEmpty) {
          if ((0 until qi).exists(i => !queues(i).isEmpty) || !sourceDone) p -= 1
          else {
            (qi + 1 until e).find(i => !queues(i).isEmpty) match {
              case Some(d) => p = d + 1
              case None    => done = true
            }
          }
        } else {
          worked = drainExtend(qi) || worked
          if (p < e) p += 1
        }
      }
    }
    worked
  }

  /** Run extend qi until its input is empty or its output queue is full. */
  private def drainExtend(qi: Int): Boolean = {
    var worked = false
    def outFull = qi + 1 < e && queues(qi + 1).isFull
    while (!queues(qi).isEmpty && !outFull && !isAborted()) {
      checkDeadline()
      val batch = queues(qi).tryDequeue()
      if (batch != null) {
        worked = true
        processExtendBatch(stage.exts(qi), batch, out => emit(out, qi))
      }
    }
    worked
  }

  private def emit(rows: ArrayBuffer[Array[Int]], fromExt: Int): Unit = {
    if (fromExt + 1 < e) {
      rows.grouped(cfg.batchSize).foreach(g => queues(fromExt + 1).enqueue(g.toArray))
    } else sinkRows(rows)
  }

  private def sinkRows(rows: collection.Seq[Array[Int]]): Unit = stage.sink match {
    case CountSink => metrics.results.addAndGet(rows.length)
    case JoinSink(spec, side) =>
      for (row <- rows) {
        val t = spec.route(row, side)
        if (t != m) metrics.bytesPushed.addAndGet(Kernels.rowBytes(row))
        spec.buffers(t)(side).add(row)
      }
  }

  // ---- sources ------------------------------------------------------------
  /** Generate source batches until the first queue is full (or source ends).
    * With e == 0 rows go straight to the sink.
    */
  private def generateSource(): Boolean = {
    var worked = false
    val batch  = new ArrayBuffer[Array[Int]](cfg.batchSize)
    def flush(): Unit = if (batch.nonEmpty) {
      worked = true
      if (e > 0) queues(0).enqueue(batch.toArray) else sinkRows(batch)
      batch.clear()
    }
    stage.source match {
      case ScanSrc(conds) =>
        while (!sourceDone && !(e > 0 && queues(0).isFull) && !isAborted()) {
          checkDeadline()
          if (scanVertexIdx >= scanLocal.length) { sourceDone = true }
          else {
            val u  = scanLocal(scanVertexIdx)
            val ns = pg.localNbrs(u, m)
            var i  = scanNbrIdx
            while (i < ns.length) {
              val row = Array(u, ns(i))
              if (conds.ok(row)) batch += row
              i += 1
            }
            scanNbrIdx = 0
            scanVertexIdx += 1
            if (batch.length >= cfg.batchSize) flush()
          }
        }
        flush()
      case JoinSrc(spec) =>
        if (joinIter == null) joinIter = spec.resultIterator(m)
        while (joinIter.hasNext && !(e > 0 && queues(0).isFull) && !isAborted()) {
          checkDeadline()
          batch += joinIter.next()
          if (batch.length >= cfg.batchSize) flush()
        }
        if (!joinIter.hasNext) sourceDone = true
        flush()
    }
    worked
  }

  // ---- PULL-EXTEND (Algorithm 4) ------------------------------------------
  /** Process one input batch, emitting bounded output chunks. The batch is
    * first split so each sub-batch's *expected expansion* (sum over rows of
    * the smallest pivot degree — an upper bound on the intersection size)
    * stays bounded: one 20k-degree hub row can otherwise blow a 4096-row
    * batch up to 10^8 output rows in a single burst, stalling the window
    * and overflowing memory far beyond the queue bound.
    */
  def processExtendBatch(ex: Kernels.Extend, batch: Array[Array[Int]],
                         emit: ArrayBuffer[Array[Int]] => Unit): Unit = {
    val pivotCols    = ex.pivotCols
    val maxExpansion = math.max(cfg.batchSize.toLong * 8, 32768L)
    var start = 0
    var acc   = 0L
    var i     = 0
    while (i < batch.length) {
      var minDeg = Int.MaxValue
      var pc = 0
      while (pc < pivotCols.length) {
        val d = pg.g.degree(batch(i)(pivotCols(pc))) // degree = graph metadata
        if (d < minDeg) minDeg = d
        pc += 1
      }
      acc += minDeg
      i += 1
      if (acc >= maxExpansion || i == batch.length) {
        val sub = if (start == 0 && i == batch.length) batch
                  else java.util.Arrays.copyOfRange(batch, start, i)
        emit(processExtendSub(ex, sub))
        start = i
        acc = 0L
      }
    }
  }

  private def processExtendSub(ex: Kernels.Extend,
                               batch: Array[Array[Int]]): ArrayBuffer[Array[Int]] = {
    val pivotCols = ex.pivotCols
    if (cfg.pushExtends) {
      // BiGJoin-native: each partial result travels to the owner of every
      // extension pivot in turn; the intersection itself is then local.
      var b = 0
      while (b < batch.length) {
        val row  = batch(b)
        var prev = m
        var i    = 0
        while (i < pivotCols.length) {
          val o = pg.owner(row(pivotCols(i)))
          if (o != prev) { metrics.bytesPushed.addAndGet(Kernels.rowBytes(row)); prev = o }
          i += 1
        }
        b += 1
      }
      return intersectStage(ex, batch, v => pg.serveNbrs(v))
    }

    if (cache.twoStage) {
      // ---- fetch stage (single writer: this scheduler thread) ----
      val tf = System.nanoTime()
      val remote = new Kernels.IntSet(batch.length)
      var b = 0
      while (b < batch.length) {
        val row = batch(b)
        var i = 0
        while (i < pivotCols.length) {
          val v = row(pivotCols(i))
          if (cfg.externalStore || pg.owner(v) != m) remote.add(v)
          i += 1
        }
        b += 1
      }
      val fetch = new ArrayBuffer[Int]()
      remote.foreach { v =>
        if (cache.contains(v)) { cache.seal(v); cache.hits.incrementAndGet() }
        else fetch += v
      }
      cache.misses.addAndGet(fetch.length)
      if (fetch.nonEmpty) {
        if (cfg.externalStore) {
          // One store access per vertex; the store round-trip latency is
          // client-side overhead and is accounted as compute (kvAccesses),
          // not as network RPC time — the paper's observation that BENU's
          // store overhead inflates T_R, not T_C.
          metrics.kvAccesses.addAndGet(fetch.length)
        } else {
          // Bulk GetNbrs: one RPC per distinct owner machine per batch.
          metrics.rpcs.addAndGet(fetch.iterator.map(pg.owner).toSet.size)
        }
        for (v <- fetch) {
          val ns = pg.serveNbrs(v)
          metrics.bytesPulled.addAndGet(4L + 4L * ns.length)
          cache.insert(v, ns)
          cache.seal(v) // every vertex used by this batch stays resident
        }
      }
      metrics.fetchNanos.addAndGet(System.nanoTime() - tf)

      // ---- intersect stage (workers, lock-free reads) ----
      val out = intersectStage(ex, batch, { v =>
        if (!cfg.externalStore && pg.owner(v) == m) pg.localNbrs(v, m) else cache.get(v)
      })
      cache.release()
      out
    } else {
      // Per-access mode (Cncr-LRU / BENU): fetch inside the intersection.
      intersectStage(ex, batch, { v =>
        if (!cfg.externalStore && pg.owner(v) == m) pg.localNbrs(v, m)
        else {
          var ns = cache.get(v)
          if (ns != null) cache.hits.incrementAndGet()
          else {
            cache.misses.incrementAndGet()
            ns = pg.serveNbrs(v)
            metrics.bytesPulled.addAndGet(4L + 4L * ns.length)
            if (cfg.externalStore) metrics.kvAccesses.incrementAndGet()
            else metrics.rpcs.incrementAndGet()
            cache.insert(v, ns)
          }
          ns
        }
      })
    }
  }

  private def intersectStage(ex: Kernels.Extend, batch: Array[Array[Int]],
                             nbrsOf: Int => Array[Int]): ArrayBuffer[Array[Int]] =
    pool.run(scala.collection.immutable.ArraySeq.unsafeWrapArray(batch), cfg.chunkSize,
             () => isAborted() || System.nanoTime() > deadlineNanos) { (row, out) =>
      ex(row, nbrsOf, out)
    }

  // ---- inter-machine StealWork (§5.3) --------------------------------------
  private def trySteal(): Boolean = {
    val rng   = java.util.concurrent.ThreadLocalRandom.current()
    val order = rng.ints(0, cfg.machines).distinct().limit(cfg.machines.toLong).toArray
    for (victimId <- order if victimId != m) {
      val victim = board(victimId)
      if (victim != null) {
        // Top-most unfinished operator: the earliest non-empty input queue.
        var qi = 0
        while (qi < victim.queues.length) {
          val batch = victim.queues(qi).tryDequeue()
          if (batch != null) {
            metrics.stealsInter.incrementAndGet()
            metrics.rpcs.incrementAndGet() // the StealWork RPC
            metrics.stolenBytes.addAndGet(Kernels.batchBytes(batch))
            pipelineFrom(qi, batch)
            return true
          }
          qi += 1
        }
      }
    }
    false
  }

  /** Depth-first local pipeline for stolen batches: run ops qi..e-1 with
    * bounded sub-batches (no queues involved).
    */
  def pipelineFrom(qi: Int, batch: Array[Array[Int]]): Unit = {
    if (isAborted()) return
    processExtendBatch(stage.exts(qi), batch, { out =>
      if (qi + 1 < e) out.grouped(cfg.batchSize).foreach(g => pipelineFrom(qi + 1, g.toArray))
      else sinkRows(out)
    })
  }
}
