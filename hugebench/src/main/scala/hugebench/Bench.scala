package hugebench

import java.io.File
import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.engine._
import repro.graph.{DataGraph, LocalEnum}
import repro.spark.{BatchedRunner, CommAccounting, GraphDF, SparkExecutor}

final case class Metric(name: String, value: Double, unit: String)

final case class Result(correct: Boolean, attempted: Int, failed: Int, metrics: Vector[Metric])

/** One benchmark run of one workload: set up (several times, timed), compute
  * the exact count with `LocalEnum`, warm up, then run the query on the
  * engine in a closed loop for the requested time. Untraced runs report the
  * end-to-end metrics; traced runs report the per-layer ones.
  */
final class Bench(w: Workload, seed: Long, seconds: Double, traced: Boolean, outDir: File) {
  import Bench._

  private val q  = w.query
  private val tr = new Tracer(traced)

  private def now(): Long = System.nanoTime()
  private def secsSince(t0: Long): Double = (now() - t0) / 1e9

  private def say(line: String): Unit = println(s"# $line")

  /** Every query execution of the run, each checked against the exact count. */
  private val executions = scala.collection.mutable.ArrayBuffer.empty[Execution]

  private def loop(client: Client, phase: String, secs: Double, minRuns: Int,
                   t: Tracer = Tracer.off, between: () => Unit = () => ()): Vector[Execution] = {
    val es = client.loop(phase, secs, minRuns, t, between)
    executions ++= es
    es
  }

  // ---- set-up ---------------------------------------------------------------

  private def plan(): Plan = {
    val g    = tr.span("graph.gen")(w.dataset.generate(seed))
    val cost = tr.span("core.cost_model")(CostModel.of(g))
    val p    = tr.span("core.optimise")(Optimiser.optimise(q, cost, OptimiserConfig.huge(Shape.machines)))
    val op   = tr.span("core.dataflow")(Dataflow.fromPlan(p, q, q.symmetryConditions))
    Plan(g, cost, p, op)
  }

  /** Run `once` at least `minReps` times and for at least `minSec`, each
    * its own trace run `<phase>-<i>`. Returns the last result and the
    * durations without the first, cold repetition.
    */
  private def repeat[A](phase: String, minReps: Int, minSec: Double)(once: => A): (A, Seq[Double]) = {
    val runs  = scala.collection.mutable.ArrayBuffer.empty[(A, Double)]
    val start = now()
    while (runs.length < minReps || secsSince(start) < minSec) {
      runs += tr.inRun(s"$phase-${runs.length + 1}") {
        val t0 = now()
        val a  = tr.span("bench.setup")(once)
        (a, secsSince(t0))
      }
    }
    say(s"$phase seconds: ${runs.map(r => f"${r._2}%.4f").mkString(" ")}")
    (runs.last._1, runs.tail.map(_._2).toSeq)
  }

  private def expectedCount(g: DataGraph): Long = tr.inRun("verify") {
    val t0 = now()
    val n  = tr.span("bench.verify")(tr.span("graph.local_enum")(LocalEnum.countSubgraphs(q, g)))
    say(f"expected count $n%d from LocalEnum in ${secsSince(t0)}%.3f s (single thread)")
    n
  }

  // ---- measurement helpers -------------------------------------------------

  private def completed(es: Seq[Execution]): Seq[Execution] =
    es.filter(e => !e.outcome.isInstanceOf[Outcome.Error])

  private def queryS(es: Seq[Execution]): Double = Stats.median(completed(es).map(_.wallSec))

  private def counter(es: Seq[Execution], name: String): Double =
    Stats.median(es.filter(_.outcome == Outcome.Ok).map(_.counters(name)))

  private def describe(what: String, es: Seq[Execution]): Unit = {
    val times = completed(es).map(_.wallSec)
    say(f"$what: median ${Stats.median(times)}%.4f s over ${times.length} executions" +
      Stats.tailPercentile(times.length).fold("")(p => f", p$p%.1f ${Stats.percentile(times, p)}%.4f s"))
    say(s"$what samples: ${times.map(t => f"$t%.4f").mkString(" ")}")
  }

  /** Peak live heap while queries run. G1's occupancy after its own young
    * collections tracks its marking threshold rather than the program, so a
    * sampler thread forces a full collection every 50 ms while the client
    * runs a few more (untimed, still checked) executions, and keeps the
    * largest occupancy right after a collection.
    */
  private def heapPeak(client: Client): Long = {
    val mem  = ManagementFactory.getMemoryMXBean
    val peak = new AtomicLong
    @volatile var stop = false
    val sampler = new Thread(() => {
      var n = 0
      while (!stop) {
        System.gc()
        peak.accumulateAndGet(mem.getHeapMemoryUsage.getUsed, math.max)
        n += 1
        Thread.sleep(50)
      }
      say(s"heap: $n forced collections")
    }, "bench-heap-sampler")
    sampler.setDaemon(true)
    sampler.start()
    try loop(client, "heap", heapProbeSec, heapProbeRuns)
    finally { stop = true; sampler.join() }
    peak.get
  }

  // ---- per-layer metrics ------------------------------------------------------

  private def layerMetrics(p: Plan, expected: Long, plain: Seq[Execution],
                           measured: Seq[Execution]): Vector[Metric] = {
    val aut       = q.automorphisms.size.toDouble
    val est       = p.cost.estimate(q) / aut
    val qError    = if (expected == 0) est.max(1.0) else math.max(est / expected, expected / est)
    val plainS    = queryS(plain)
    val tracedS   = queryS(measured)
    def med(name: String) = Stats.median(tr.durations(name))
    def self(phase: String, layer: String) = {
      val per = tr.selfPerRun(phase, layer)
      if (per.isEmpty) 0.0 else Stats.median(per)
    }
    say(f"core: estimate ${p.cost.estimate(q)}%.4g matches / |Aut| $aut%.0f = $est%.4g subgraphs; exact $expected")
    Vector(
      Metric("graph.gen_s", med("graph.gen"), "s"),
      Metric("graph.local_enum_s", med("graph.local_enum"), "s"),
      Metric("core.cost_model_s", med("core.cost_model"), "s"),
      Metric("core.optimise_s", med("core.optimise"), "s"),
      Metric("core.dataflow_s", med("core.dataflow"), "s"),
      Metric("core.root_q_error", qError, "ratio"),
      Metric("core.push_joins", p.op.sequence.count(_.isInstanceOf[PushJoin]).toDouble, "count"),
    ) ++ Vector("graph", "core", "bench").map(l =>
      Metric(s"self.setup.${l}_s", self("setup-", l), "s")
    ) ++ Vector("engine", "bench").map(l =>
      Metric(s"self.query.${l}_s", self("query-", l), "s")
    ) ++ Vector(
      Metric("trace.query_s_untraced", plainS, "s"),
      Metric("trace.query_s_traced", tracedS, "s"),
      Metric("trace.overhead_s", tracedS - plainS, "s"),
    ) ++ engineCounters(measured.filter(_.outcome == Outcome.Ok))
  }

  private def engineCounters(ok: Seq[Execution]): Vector[Metric] = Vector(
    Metric("engine.run_s", counter(ok, "run_s"), "s"),
    Metric("engine.fetch_s", counter(ok, "fetch_s"), "s"),
    Metric("engine.fetch_frac", counter(ok, "fetch_frac"), "ratio"),
    Metric("engine.rpcs", counter(ok, "rpcs"), "count"),
    Metric("engine.cache_hit_rate", counter(ok, "cache_hit_rate"), "ratio"),
    Metric("engine.cache_lookups", counter(ok, "cache_lookups"), "count"),
    Metric("engine.bytes_pulled", counter(ok, "bytes_pulled"), "bytes"),
    Metric("engine.bytes_pushed", counter(ok, "bytes_pushed"), "bytes"),
    Metric("engine.bytes_stolen", counter(ok, "bytes_stolen"), "bytes"),
    Metric("engine.steals_intra", counter(ok, "steals_intra"), "count"),
    Metric("engine.steals_inter", counter(ok, "steals_inter"), "count"),
    Metric("engine.spilled_bytes", counter(ok, "spilled_bytes"), "bytes"),
    Metric("engine.results", counter(ok, "results"), "count"),
  )

  private def kernelMetrics(g: DataGraph): Vector[Metric] = {
    val t0                  = now()
    val micro               = new Micro(g, Shape.engineConfig(g), seed)
    val (merge, gallop)     = micro.intersect()
    val (add, drain, spill) = micro.join()
    val out = Vector(
      Metric("graph.intersect_merge_ns", merge, "ns"),
      Metric("graph.intersect_gallop_ns", gallop, "ns"),
      Metric("engine.lrbu_op_ns", micro.lrbu(), "ns"),
      Metric("engine.intset_add_ns", micro.intSetAdd(), "ns"),
      Metric("engine.batchqueue_op_ns", micro.batchQueue(), "ns"),
      Metric("engine.pool_batch_us", micro.poolBatch(), "us"),
      Metric("engine.join_buffer_add_ns", add, "ns"),
      Metric("engine.join_merge_ns_per_row", drain, "ns"),
      Metric("engine.pair_join_ns", micro.pairJoin(), "ns"),
      Metric("engine.join_spill_ns_per_row", spill, "ns"),
    )
    say(f"kernels: ${secsSince(t0)}%.2f s")
    out
  }

  // ---- environment -------------------------------------------------------------

  private def printEnv(p: Plan): Unit = {
    val cfg = Shape.engineConfig(p.g)
    val pg  = new PartitionedGraph(p.g, Shape.machines)
    val remote = (0 until Shape.machines).map { m =>
      val seen = new java.util.BitSet(p.g.numVertices)
      pg.localVertices(m).foreach(v => p.g.adj(v).foreach(u => if (pg.owner(u) != m) seen.set(u)))
      seen.cardinality()
    }
    val d = w.dataset
    say(s"env workload=${w.name} query=${w.queryName} dataset=${d.name} n=${d.n} m=${d.m} " +
      s"alpha=${d.alpha} max_degree=${d.maxDegree} seed=$seed (default ${d.defaultSeed}) " +
      s"|V|=${p.g.numVertices} |E|=${p.g.numEdges} d_max=${p.g.maxDegree}")
    say(s"env engine machines=${cfg.machines} workers=${cfg.workersPerMachine} batch=${cfg.batchSize} " +
      s"queue_rows=${cfg.queueCapacityRows} cache=${cfg.cacheKind} chunk=${cfg.chunkSize} " +
      s"spill_threshold_rows=${cfg.spillThresholdRows} inter_stealing=${cfg.interStealing} " +
      s"deadline_s=${Shape.deadlineSec}")
    say(s"env network bandwidth_bytes_per_s=${cfg.net.bandwidthBytesPerSec} " +
      s"rpc_latency_s=${cfg.net.rpcLatencySec} kv_access_latency_s=${cfg.net.kvAccessLatencySec}")
    say(s"env cache capacity_entries=${cfg.cacheCapacityEntries} per machine; remote neighbour " +
      s"vertices per machine=${remote.mkString(",")}")
    say(s"env dataflow ${p.op}")
  }

  // ---- the run -------------------------------------------------------------------

  def run(): Result = {
    say(s"env closed loop, 1 client; warm-up >= $warmupRuns executions and >= $warmupSec s " +
      s"(Spark: >= $sparkWarmupRuns and >= $sparkWarmupSec s); set-up repeated >= $setupReps times and >= $setupSec s, " +
      s"then once after each timed query; " +
      s"trace=${if (traced) 1 else 0}")
    val (p, setupS) = repeat("setup", setupReps, setupSec)(plan())
    printEnv(p)
    val expected = expectedCount(p.g)
    val client   = new Client(new EngineSubject(p.op, p.g, Shape.engineConfig(p.g)), expected)
    val metrics  = try {
      val warm = loop(client, "warmup", warmupSec, warmupRuns)
      say(s"warm-up seconds: ${warm.map(e => f"${e.wallSec}%.4f").mkString(" ")}")
      if (!traced) {
        // One more set-up after each timed query, so that setup_s covers
        // the same stretch of time as query_s.
        val between = scala.collection.mutable.ArrayBuffer.empty[Double]
        val measured = loop(client, "query", seconds, 1, between = () => {
          val t0 = now(); plan(); between += secsSince(t0)
        })
        describe("query_s", measured)
        say(s"setup seconds between queries: ${between.map(t => f"$t%.4f").mkString(" ")}")
        val heap = heapPeak(client)
        val ok   = measured.filter(_.outcome == Outcome.Ok)
        Vector(
          Metric("query_s", queryS(measured), "s"),
          Metric("setup_s", Stats.median(setupS ++ between), "s"),
          Metric("comm_model_s", counter(ok, "comm_model_s"), "s"),
          Metric("comm_bytes", counter(ok, "comm_bytes"), "bytes"),
          Metric("peak_mem_bytes", counter(ok, "peak_mem_bytes"), "bytes"),
          Metric("heap_peak_bytes", heap.toDouble, "bytes"),
        )
      } else {
        // Half the time untraced, half traced: the difference is the
        // tracing overhead.
        val plain    = loop(client, "plain", seconds / 2, 1)
        val measured = loop(client, "query", seconds / 2, 1, tr)
        describe("query_s untraced", plain)
        describe("query_s traced", measured)
        layerMetrics(p, expected, plain, measured) ++ kernelMetrics(p.g) ++
          (if (w.withSpark) sparkMetrics(p, expected) else notOnPath(sparkMetricNames))
      }
    } finally client.close()

    val failed = executions.count(_.outcome != Outcome.Ok)
    val wrong  = executions.count(_.outcome.isInstanceOf[Outcome.Wrong])
    say(f"failed_frac: $failed / ${executions.length} = ${failed.toDouble / executions.length}%.4f" +
      s" (wrong $wrong, timed out ${executions.count(_.outcome == Outcome.TimedOut)}," +
      s" errors ${executions.count(_.outcome.isInstanceOf[Outcome.Error])})")
    if (traced) {
      val f = new File(outDir, s"trace-${w.name}-$seed.jsonl")
      tr.write(f)
      say(s"trace spans written to ${f.getPath}")
    }
    Result(wrong == 0 && executions.exists(_.outcome == Outcome.Ok), executions.length, failed, metrics)
  }

  private def notOnPath(names: Seq[String]): Vector[Metric] = {
    say(s"not on this workload's path, reported as 0: ${names.mkString(" ")}")
    names.map(n => Metric(n, 0.0,
      if (n.endsWith("_s")) "s" else if (n.contains("bytes")) "bytes" else "count")).toVector
  }

  // ---- the Spark substrate on the same input (traced runs) -----------------

  private def startSpark(): SparkSession = {
    val s = SparkSession.builder()
      .master(Shape.sparkMaster)
      .appName(s"hugebench-${w.name}")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", new File(outDir, "spark-local").getAbsolutePath)
      .config("spark.sql.shuffle.partitions", Shape.shufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** The same dataflow through `SparkExecutor.count`: session start and
    * `GraphDF` load (each `sparkSetupReps` times), a warmed-up closed loop
    * of counts, the communication accounting and one batched run.
    */
  private def sparkMetrics(p: Plan, expected: Long): Vector[Metric] = {
    var spark: SparkSession = null
    try {
      val ((edges, adj), _) = repeat("spark-setup", sparkSetupReps, 0.0) {
        if (spark != null) spark.stop()
        spark = tr.span("spark.session")(startSpark())
        tr.span("spark.load") {
          val e = GraphDF.edges(spark, p.g).cache()
          val a = GraphDF.adjacency(spark, p.g).cache()
          e.count(); a.count()
          (e, a)
        }
      }
      val session = spark
      say(s"env spark=${org.apache.spark.SPARK_VERSION} master=${session.sparkContext.master} " +
        s"shuffle_partitions=${session.conf.get("spark.sql.shuffle.partitions")} " +
        s"default_parallelism=${session.sparkContext.defaultParallelism}")
      val client = new Client(new Subject {
        def spanName = "spark.count"
        def execute(): (Long, Map[String, Double]) =
          (SparkExecutor.count(p.op, edges, adj), Map.empty)
        override def cancel(): Unit = session.sparkContext.cancelAllJobs()
      }, expected)
      try {
        loop(client, "spark-warmup", sparkWarmupSec, sparkWarmupRuns)
        describe("spark count_s", loop(client, "spark-query", seconds / 2, 1, tr))
      } finally client.close()

      val (pushed, pulled) = CommAccounting.totals(p.op, edges, adj, Shape.machines)
      // A budget of a quarter of the largest estimated intermediate gives
      // the adaptive rule a handful of batches.
      val budget  = BatchedRunner.planIntermediates(p.plan).map(p.cost.estimate).max / 4
      val batches = BatchedRunner.adaptiveBatches(q, p.plan, p.cost, budget)
      val (r, batchedS) = batched(edges, adj, p.op, batches, expected)
      say(f"spark batched: budget $budget%.4g rows -> ${r.batches} batches, count ${r.count}")
      Vector(
        Metric("spark.session_s", Stats.median(tr.durations("spark.session")), "s"),
        Metric("spark.load_s", Stats.median(tr.durations("spark.load")), "s"),
        Metric("spark.count_s", Stats.median(tr.durations("spark.count")), "s"),
        Metric("spark.bytes_pushed", pushed.toDouble, "bytes"),
        Metric("spark.bytes_pulled", pulled.toDouble, "bytes"),
        Metric("spark.batched_s", batchedS, "s"),
        Metric("spark.batches", r.batches.toDouble, "count"),
      )
    } finally if (spark != null) spark.stop()
  }

  private def batched(edges: DataFrame, adj: DataFrame, op: Op, batches: Int,
                      expected: Long): (BatchedRunner.RunResult, Double) = tr.inRun("spark-batched") {
    val t0 = now()
    val r  = tr.span("spark.batched")(BatchedRunner.countBatched(op, edges, adj, batches))
    val s  = secsSince(t0)
    executions += Execution(s, if (r.count == expected) Outcome.Ok else Outcome.Wrong(r.count), Map.empty)
    (r, s)
  }
}

object Bench {
  final case class Plan(g: DataGraph, cost: CostModel, plan: PlanNode, op: Op)

  val setupReps      = 5
  val setupSec       = 1.0
  val sparkSetupReps = 3
  // Sized from per-execution times of 40-second runs without warm-up: the
  // engine workloads settle after 3 executions, Spark's count after 8. After
  // a 4 s warm-up, uk-clique's first 5 s of timed queries still ran 10% above
  // the rest of the run, hence 10 s.
  val warmupRuns      = 5
  val warmupSec       = 10.0
  val sparkWarmupRuns = 8
  val sparkWarmupSec  = 10.0
  val heapProbeRuns   = 2
  val heapProbeSec    = 1.0

  val sparkMetricNames: Vector[String] = Vector("spark.session_s", "spark.load_s", "spark.count_s",
    "spark.bytes_pushed", "spark.bytes_pulled", "spark.batched_s", "spark.batches")
}

/** The engine as a [[Subject]]: one `Engine.run` of the compiled dataflow,
  * with the `Metrics` counters of that run.
  */
final class EngineSubject(op: Op, g: DataGraph, cfg: EngineConfig) extends Subject {
  def spanName = "engine.run"

  def execute(): (Long, Map[String, Double]) = {
    val m      = Engine.run(op, new PartitionedGraph(g, cfg.machines), cfg)
    val fetchS = m.fetchNanos.get / 1e9
    (m.results.get, Map(
      "run_s"          -> m.measuredWallSec,
      "fetch_s"        -> fetchS,
      "fetch_frac"     -> fetchS / m.measuredWallSec,
      "comm_model_s"   -> m.commTimeSec,
      "comm_bytes"     -> m.commBytes.toDouble,
      "peak_mem_bytes" -> m.peakMemoryBytes.toDouble,
      "rpcs"           -> m.rpcs.get.toDouble,
      "cache_hit_rate" -> m.hitRate,
      "cache_lookups"  -> (m.cacheHits.get + m.cacheMisses.get).toDouble,
      "bytes_pulled"   -> m.bytesPulled.get.toDouble,
      "bytes_pushed"   -> m.bytesPushed.get.toDouble,
      "bytes_stolen"   -> m.stolenBytes.get.toDouble,
      "steals_intra"   -> m.stealsIntra.get.toDouble,
      "steals_inter"   -> m.stealsInter.get.toDouble,
      "spilled_bytes"  -> m.spilledBytes.get.toDouble,
      "results"        -> m.results.get.toDouble,
    ))
  }
}
