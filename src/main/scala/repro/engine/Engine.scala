package repro.engine

import java.util.concurrent.CyclicBarrier
import java.util.concurrent.atomic.AtomicReference
import java.util.concurrent.locks.LockSupport
import repro.core._
import scala.collection.mutable.ArrayBuffer

/** Engine configuration — one per "system" (HUGE and every baseline run on
  * the same engine with different knobs, the paper's plug-in story).
  *
  * Whether an extend pushes or pulls is its plan join's communication mode,
  * carried by each [[PullExtend]].
  *
  * @param queueCapacityRows fixed capacity of every operator output queue
  *        (Algorithm 5): small => DFS-style, huge => BFS-style scheduling
  * @param externalStore    BENU-native: all adjacency (even local) is read
  *        through an external KV store — per-access RPC + modelled latency
  * @param interStealing    inter-machine StealWork (§5.3); without it a
  *        machine leaves a stage as soon as its own work is done
  * @param chunkSize        the least work per intra-machine stealing unit,
  *        in expected output rows (a verify counts each input row as one):
  *        the pool cuts an extend's intersect stage into chunks of at least
  *        this weight, and runs a lighter stage inline
  */
final case class EngineConfig(
    machines: Int = 4,
    workersPerMachine: Int = 2,
    batchSize: Int = 2048,
    queueCapacityRows: Long = 200_000,
    cacheKind: CacheKind = CacheKind.Lrbu,
    cacheCapacityEntries: Int = 50_000,
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

object Stages {
  /** Cut the operator tree at PUSH-JOINs; topological order (left, right,
    * then the join's own chain) — §5.4's DAG of subgraphs.
    */
  def compile(root: Op, cfg: EngineConfig, metrics: Metrics): Vector[Stage] = {
    // `exts` collects the chain's extends above `op`, in execution order.
    def decompose(op: Op, exts: List[Kernels.Extend], sink: ChainSink): Vector[Stage] = op match {
      case e: PullExtend => decompose(e.input, new Kernels.Extend(e) :: exts, sink)
      case s: ScanEdge   => Vector(Stage(ScanSrc(new Kernels.Conds(s)), exts.toVector, sink))
      case j: PushJoin =>
        val spec = new JoinSpec(j, cfg, metrics)
        decompose(j.left, Nil, JoinSink(spec, 0)) ++
          decompose(j.right, Nil, JoinSink(spec, 1)) :+
          Stage(JoinSrc(spec), exts.toVector, sink)
    }
    decompose(root, Nil, CountSink)
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

    val barrier = new CyclicBarrier(k)
    val failure = new AtomicReference[Throwable]()
    @volatile var aborted = false
    val deadline = if (cfg.timeLimitSec.isInfinity) Long.MaxValue
                   else System.nanoTime() + (cfg.timeLimitSec * 1e9).toLong
    // The one stop predicate: a machine failed, or the deadline passed (the
    // first check to see it marks the run as timed out).
    val stopped: () => Boolean = () =>
      aborted || (System.nanoTime() > deadline && { metrics.timedOut = true; aborted = true; true })

    val pools     = Array.tabulate(k)(m => new WorkerPool(m, cfg.workersPerMachine, metrics))
    val extenders = pools.map(new Extender(_, pg, cfg, metrics, stopped))
    val boards    = stages.map(new StageBoard(_, pg, extenders, cfg, metrics, stopped))

    val t0 = System.nanoTime()
    val threads = new Array[Thread](k)
    for (m <- 0 until k) threads(m) = new Thread(() => {
      try {
        for (board <- boards) {
          board(m).runStage()
          // Every source is exhausted or the run is stopping, so this
          // machine's join buckets have no reader left.
          board.stage.source match { case JoinSrc(spec) => spec.clear(m); case _ => }
          barrier.await() // stage complete everywhere
        }
      } catch {
        // The first failure stops the run. `aborted` is set before the peers
        // are interrupted, so a peer leaves `runStage` as `stopped()` turns
        // true (the idle wait returns on interrupt without throwing) and
        // throws at `barrier.await()`, or in its pool wait, as its
        // interrupt flag is still set.
        case e: Throwable =>
          aborted = true
          if (failure.compareAndSet(null, e))
            threads.foreach(t => if (t ne Thread.currentThread()) t.interrupt())
      }
    }, s"machine-$m")
    try { threads.foreach(_.start()); threads.foreach(_.join()) }
    finally { // spill runs go on every path: completion, timeout and failure
      pools.foreach(_.shutdown())
      stages.foreach(_.source match { case JoinSrc(spec) => spec.clear(); case _ => })
    }
    if (failure.get != null) throw failure.get
    metrics.measuredWallSec = (System.nanoTime() - t0) / 1e9
    metrics
  }

  /** Convenience: build the dataflow for q under `plan` and run it. */
  def runPlan(plan: PlanNode, q: repro.graph.QueryGraph, pg: PartitionedGraph,
              cfg: EngineConfig): Metrics =
    run(Dataflow.fromPlan(plan, q, q.symmetryConditions), pg, cfg)
}

/** One stage's k [[MachineRunner]]s, built before any machine thread
  * starts (for inter-machine stealing and termination detection).
  */
final class StageBoard(val stage: Stage, pg: PartitionedGraph, extenders: Array[Extender],
                       cfg: EngineConfig, metrics: Metrics, stopped: () => Boolean) {
  val k: Int = extenders.length
  private val runners =
    Array.tabulate(k)(m => new MachineRunner(m, this, pg, extenders(m), cfg, metrics, stopped))
  private val idle = new Array[Boolean](k)
  def apply(m: Int): MachineRunner = runners(m)

  /** Mark machine m idle; true when every machine is idle, i.e. the stage
    * is done. A machine is marked idle only with empty queues and its source
    * done, and only its own thread adds to its queues (a thief only takes),
    * so an idle machine has no work left until it marks itself busy.
    */
  def markIdle(m: Int): Boolean = this.synchronized {
    idle(m) = true
    idle.forall(identity)
  }

  def markBusy(m: Int): Unit = this.synchronized { idle(m) = false }
}

/** One machine's execution of one stage: one loop for the Algorithm-5
  * walk and StealWork, source generation and sinks. PULL-EXTENDs run on the
  * machine's [[Extender]]; a machine with no work of its own steals through
  * [[StealWork]], which puts the batch on its own queue for the same loop to
  * drain. The chain's last operator hands its output to the stage's sink on
  * the extender's [[WorkerPool]], by the worker that made it: a join sink
  * routes each worker's share with one [[JoinSpec.route]], the count sink
  * counts it.
  * A join source sorts and merges the machine's join parts on the same
  * pool; feeding the count sink directly, it counts the joined pairs and
  * builds no row.
  */
final class MachineRunner(val m: Int, board: StageBoard, pg: PartitionedGraph, extender: Extender,
                          cfg: EngineConfig, metrics: Metrics, stopped: () => Boolean) {

  private val stage = board.stage
  private val e     = stage.exts.length
  val queues: Array[BatchQueue] =
    Array.fill(e)(new BatchQueue(cfg.queueCapacityRows, m, metrics))

  // ---- Algorithm 5 --------------------------------------------------------
  /** The DFS/BFS-adaptive walk (§5.2) and StealWork (§5.3) as one loop. Each
    * pass drains the deepest non-empty queue, so an operator runs until its
    * output queue is full and control falls back to the previous operator
    * once its input is empty; with every queue empty the source refills the
    * first one. Only when the source is done too does the machine steal, or,
    * without inter-machine stealing, leave the stage.
    */
  def runStage(): Unit =
    while (!stopped()) {
      val qi = queues.lastIndexWhere(!_.isEmpty)
      if (qi >= 0) drainExtend(qi)
      else if (!sourceDone) generateSource()
      else if (!cfg.interStealing) return
      else if (!StealWork(m, board, metrics)) {
        if (board.markIdle(m)) return
        LockSupport.parkNanos(200_000)
        board.markBusy(m)
      }
    }

  /** Run extend qi until its input is empty or its output queue is full;
    * its output goes in batches to the next queue, or to the sink.
    */
  private def drainExtend(qi: Int): Unit = {
    def outFull = qi + 1 < e && queues(qi + 1).isFull
    val last = qi + 1 == e
    val emit: ArrayBuffer[Array[Int]] => Unit = if (last) sink else enqueueBatches(_, queues(qi + 1))
    while (!queues(qi).isEmpty && !outFull && !stopped()) {
      val batch = queues(qi).tryDequeue()
      if (batch != null) extender(stage.exts(qi), batch, emit, onWorkers = last)
    }
  }

  /** Cut `rows` into batches of `batchSize` rows, in order. */
  private def enqueueBatches(rows: ArrayBuffer[Array[Int]], q: BatchQueue): Unit = {
    var from = 0
    while (from < rows.length) {
      val batch = new Array[Array[Int]](math.min(cfg.batchSize, rows.length - from))
      var i = 0
      while (i < batch.length) { batch(i) = rows(from + i); i += 1 }
      q.enqueue(batch)
      from += batch.length
    }
  }

  /** The stage's sink; thread-safe, as the workers call it. */
  private val sink: ArrayBuffer[Array[Int]] => Unit = stage.sink match {
    case CountSink            => rows => metrics.results.addAndGet(rows.length)
    case JoinSink(spec, side) => rows => spec.route(m, side, rows)
  }

  // ---- sources ------------------------------------------------------------
  private var sourceDone = false
  private def firstFull  = e > 0 && queues(0).isFull

  /** Fill the first queue from the source (with e == 0 rows go straight to
    * the sink) until it is full or the source is exhausted.
    */
  private val generateSource: () => Unit = stage.source match {
    case ScanSrc(conds) =>
      var next = 0
      () => {
        val local = extender.scanOrder
        val batch = new ArrayBuffer[Array[Int]](cfg.batchSize)
        def flush(): Unit = if (batch.nonEmpty) {
          if (e > 0) queues(0).enqueue(batch.toArray) else sink(batch)
          batch.clear()
        }
        // One local vertex's scanned edges at a time.
        while (next < local.length && !firstFull && !stopped()) {
          val u  = local(next)
          val ns = pg.localNbrs(u, m)
          var i  = 0
          while (i < ns.length) {
            val row = Array(u, ns(i))
            if (conds.ok(row)) batch += row
            i += 1
          }
          next += 1
          if (batch.length >= cfg.batchSize) flush()
        }
        flush()
        sourceDone = next == local.length
      }
    case JoinSrc(spec) =>
      // The join parts run on the machine's workers. A part's merge is
      // built, and so its two sides are sorted, by the worker that first
      // reads it. A refill reads at most maxExpansion / parts rows from
      // each open part, so no more in all than one extend range may add;
      // with no extend the rows go to the sink on the workers. Feeding the
      // count sink, a part is counted to its end in one refill, a slice of
      // that many visited pairs at a time, so that a stop is seen.
      val merges   = new Array[PartMerge](spec.parts)
      var open     = Vector.tabulate(spec.parts)(Array(_))
      val perPart  = math.max(1L, extender.maxExpansion / spec.parts)
      val counting = e == 0 && stage.sink == CountSink
      () =>
        while (open.nonEmpty && !firstFull && !stopped()) {
          val rows = extender.pool.run(open, 1, stopped, if (e > 0) null else sink) { (part, out) =>
            val p = part(0)
            if (merges(p) == null) merges(p) = spec.merge(m, p)
            val merge = merges(p)
            if (counting) while (!merge.done && !stopped()) metrics.results.addAndGet(merge.count(perPart))
            else {
              var n   = 0L
              var row: Array[Int] = null
              while (n < perPart && { row = merge.nextRow(); row != null }) { out += row; n += 1 }
            }
          }
          open = open.filter(part => merges(part(0)) == null || !merges(part(0)).done)
          if (rows.nonEmpty) enqueueBatches(rows, queues(0))
          sourceDone = open.isEmpty
        }
  }
}
