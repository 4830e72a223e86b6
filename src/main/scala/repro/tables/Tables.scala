package repro.tables

import repro.baselines.Systems
import repro.core._
import repro.engine._
import repro.graph._

/** Shared, cached datasets for the table harnesses (deterministic). */
object Datasets {
  private val cache = new java.util.concurrent.ConcurrentHashMap[String, DataGraph]()
  def apply(name: String): DataGraph =
    cache.computeIfAbsent(name, GraphGen.dataset(_))
}

/** Plain-text table rendering. */
object Fmt {
  def render(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all    = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = "|" + widths.map(w => "-" * (w + 2)).mkString("|") + "|"
    (line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  def secs(d: Double): String = f"$d%.1fs"
  def gb(bytes: Long): String = f"${bytes / 1e9}%.4fGB"
}

/** Table 1: the square query over LJ — total time, computation time,
  * communication time, communication volume and peak memory for
  * SEED / BiGJoin / BENU / RADS / HUGE.
  */
object Table1 {
  final case class Row(system: String, t: Double, tr: Double, tc: Double,
                       cBytes: Long, mBytes: Long, results: Long, completed: Boolean)

  def run(dataset: String = "LJ", machines: Int = 4, workers: Int = 3,
          timeLimitSec: Double = 300.0): Vector[Row] = {
    val g = Datasets(dataset)
    val base = EngineConfig(machines = machines, workersPerMachine = workers,
      batchSize = 4096, queueCapacityRows = 500_000, timeLimitSec = timeLimitSec,
      net = NetworkModel.benchScaled)
    // Warm the JIT on the extend/queue paths with a small graph first so the
    // first measured system is not penalised.
    Systems.run("HUGE", Queries.q1, Datasets("GO"), base.copy(timeLimitSec = 20.0))
    Systems.names.map { name =>
      // The fast systems get two repetitions (min taken) to suppress JIT/GC
      // noise; BENU and RADS are slow enough that one run is stable.
      val reps = if (name == "BENU" || name == "RADS") 1 else 2
      val m = (1 to reps).map(_ => Systems.run(name, Queries.q1, g, base))
        .minBy(_.totalTimeSec)
      Row(name, m.totalTimeSec, m.computeTimeSec, m.commTimeSec,
          m.commBytes, m.peakMemoryBytes, m.results.get,
          completed = !m.timedOut)
    }
  }

  def render(rows: Seq[Row]): String = Fmt.render(
    Seq("System", "T", "T_R", "T_C", "C", "M", "results"),
    rows.map(r => Seq(r.system,
      if (r.completed) Fmt.secs(r.t) else s"OT(${Fmt.secs(r.t)})",
      Fmt.secs(r.tr), Fmt.secs(r.tc), Fmt.gb(r.cBytes), Fmt.gb(r.mBytes),
      r.results.toString)))
}

/** Table 2: each existing work's logical/physical classification, derived
  * from the actual plans our plan generators construct.
  */
object Table2 {
  def run(): Vector[(LogicalPlans.Classification, LogicalPlans.Classification)] =
    LogicalPlans.table2.map { exp =>
      // Derive on a query where the modes are observable (the square).
      (exp, LogicalPlans.classify(exp.work, Queries.q1))
    }

  def render(rows: Seq[(LogicalPlans.Classification, LogicalPlans.Classification)]): String =
    Fmt.render(
      Seq("Work", "Unit(paper)", "Order", "Algorithm", "Comm", "derived-OK"),
      rows.map { case (e, d) =>
        val ok = e.order == d.order && e.algo == d.algo && e.comm == d.comm
        Seq(e.work, e.unit, e.order, e.algo, e.comm, ok.toString)
      })
}

/** Table 3: dataset statistics of the laptop-scale analogues. */
object Table3 {
  final case class Row(name: String, v: Int, e: Long, dmax: Int, davg: Double)

  def run(names: Seq[String] = GraphGen.datasetNames): Vector[Row] =
    names.map { n =>
      val g = Datasets(n)
      Row(n, g.numVertices, g.numEdges, g.maxDegree, g.avgDegree)
    }.toVector

  def render(rows: Seq[Row]): String = Fmt.render(
    Seq("Dataset", "|V|", "|E|", "d_max", "d_avg"),
    rows.map(r => Seq(r.name, r.v.toString, r.e.toString, r.dmax.toString, f"${r.davg}%.1f")))
}

/** Table 4: HUGE's throughput (matches/second) on the web-scale analogue CW
  * for q1–q3, fixed-duration runs (the paper runs 1 hour; we scale down),
  * plus the BiGJoin-style comparator the paper quotes.
  */
object Table4 {
  final case class Row(query: String, system: String, results: Long,
                       seconds: Double, throughput: Double)

  /** Systems: HUGE, plus the two BiGJoin configurations the paper
    * discusses on CW — its default BFS-with-batching mode (which "runs OOM
    * quickly even when started with one single vertex"; here it collapses
    * to a trickle inside the window), and the *incremental* dataflow whose
    * published throughput the paper quotes.
    */
  def run(dataset: String = "CW", durationSec: Double = 15.0,
          machines: Int = 4, workers: Int = 3,
          systems: Seq[String] = Seq("HUGE", "BiGJoin-inc", "BiGJoin-bfs"),
          queries: Seq[(String, QueryGraph)] =
            Seq("q1" -> Queries.q1, "q2" -> Queries.q2, "q3" -> Queries.q3)): Vector[Row] = {
    val g = Datasets(dataset)
    def cfgFor(sys: String, base: EngineConfig): EngineConfig = sys match {
      case "HUGE"        => Systems.config("HUGE", base, g)
      case "BiGJoin-inc" => Systems.config("BiGJoin", base, g)
        .copy(batchSize = 512, queueCapacityRows = 4096)
      case "BiGJoin-bfs" => Systems.config("BiGJoin", base, g)
    }
    val base = EngineConfig(machines = machines, workersPerMachine = workers,
      batchSize = 4096, queueCapacityRows = 500_000, timeLimitSec = durationSec,
      cacheCapacityEntries = (0.3 * g.numVertices).toInt,
      net = NetworkModel.benchScaled)
    // Warm the JIT before any measured window.
    Engine.runPlan(Systems.plan("HUGE", Queries.q1, g, machines), Queries.q1,
      new PartitionedGraph(g, machines), cfgFor("HUGE", base).copy(timeLimitSec = 10.0))
    val rows = for ((qn, q) <- queries; sys <- systems) yield {
      val m = Engine.runPlan(Systems.plan(sys.takeWhile(_ != '-'), q, g, machines), q,
                             new PartitionedGraph(g, machines), cfgFor(sys, base))
      // Throughput over *modelled* total time (wall + communication model):
      // in-process, pushing partial results costs no wall time, so wall-only
      // throughput would credit the pushing baselines with a free network.
      val secs = math.max(m.measuredWallSec + m.commTimeSec, 1e-9)
      Row(qn, sys, m.results.get, secs, m.results.get / secs)
    }
    rows.toVector
  }

  def render(rows: Seq[Row]): String = Fmt.render(
    Seq("Query", "System", "results", "seconds", "throughput/s"),
    rows.map(r => Seq(r.query, r.system, r.results.toString,
      f"${r.seconds}%.1f", f"${r.throughput}%,.0f")))
}

/** Table 5: the cache-design ablation — LRBU vs LRBU-Copy, LRBU-Lock,
  * LRU-Inf and Cncr-LRU on q1–q3 (runtime, plus LRBU's fetch-stage time
  * t_f in brackets as in the paper).
  */
object Table5 {
  final case class Row(query: String, kind: CacheKind, seconds: Double,
                       fetchSeconds: Double, results: Long)

  def run(dataset: String = "LJ", machines: Int = 4, workers: Int = 3,
          timeLimitSec: Double = 240.0, reps: Int = 3,
          queries: Seq[(String, QueryGraph)] =
            Seq("q1" -> Queries.q1, "q2" -> Queries.q2, "q3" -> Queries.q3)): Vector[Row] = {
    val g    = Datasets(dataset)
    val cost = CostModel.of(g)
    val pg   = new PartitionedGraph(g, machines)
    def once(q: QueryGraph, kind: CacheKind, limit: Double): Metrics = {
      // Cache capacity covers the whole vertex set: the paper's capacity
      // (30% of UK) does not thrash its access set, so the ablation isolates
      // the *mechanism* (locks, copies, recency updates, per-access
      // fetching), not the replacement policy under thrash.
      val cfg = EngineConfig(machines = machines, workersPerMachine = workers,
        batchSize = 4096, queueCapacityRows = 500_000, cacheKind = kind,
        cacheCapacityEntries = g.numVertices, timeLimitSec = limit)
      val plan = Optimiser.optimise(q, cost, OptimiserConfig.huge(machines))
      Engine.runPlan(plan, q, pg, cfg)
    }
    // Warm the JIT (cache + extend paths) before measuring; then take the
    // best of `reps` repetitions per cell to suppress GC/scheduling noise.
    once(Queries.q1, CacheKind.Lrbu, 30.0)
    once(Queries.q1, CacheKind.CncrLru, 30.0)
    val rows = for ((qn, q) <- queries; kind <- CacheKind.all) yield {
      val ms = (1 to reps).map(_ => once(q, kind, timeLimitSec))
      val m  = ms.minBy(_.measuredWallSec)
      Row(qn, kind, m.measuredWallSec, m.fetchNanos.get / 1e9, m.results.get)
    }
    rows.toVector
  }

  def render(rows: Seq[Row]): String = Fmt.render(
    Seq("Query", "Cache", "time", "t_f", "results"),
    rows.map(r => Seq(r.query, r.kind.toString, Fmt.secs(r.seconds),
      if (r.kind == CacheKind.Lrbu) Fmt.secs(r.fetchSeconds) else "-", r.results.toString)))
}

/** Table 6: execution-plan comparison on GO — the wco-only plan vs the
  * sequential-context hybrids (EmptyHeaded/GraphFlow style) vs HUGE's
  * communication-aware hybrid, on q7 and q8.
  */
object Table6 {
  final case class Row(query: String, variant: String, seconds: Double,
                       commSeconds: Double, results: Long, completed: Boolean)

  val variants: Seq[String] = Seq("HUGE-WCO", "HUGE-EH", "HUGE-GF", "HUGE")

  def planFor(variant: String, q: QueryGraph, cost: CostModel, k: Int): PlanNode =
    variant match {
      case "HUGE-WCO" => LogicalPlans.hugeWco(q)
      case "HUGE-EH"  => LogicalPlans.emptyHeaded(q, cost)
      case "HUGE-GF"  => LogicalPlans.graphFlow(q, cost)
      case "HUGE"     => Optimiser.optimise(q, cost, OptimiserConfig.huge(k))
    }

  def run(dataset: String = "GO", machines: Int = 4, workers: Int = 3,
          timeLimitSec: Double = 120.0,
          queries: Seq[(String, QueryGraph)] =
            Seq("q7" -> Queries.q7, "q8" -> Queries.q8)): Vector[Row] = {
    val g    = Datasets(dataset)
    val cost = CostModel.of(g)
    val cfg  = EngineConfig(machines = machines, workersPerMachine = workers,
      batchSize = 4096, queueCapacityRows = 500_000,
      cacheCapacityEntries = (0.3 * g.numVertices).toInt, timeLimitSec = timeLimitSec,
      net = NetworkModel.benchScaled)
    // Warm the JIT on the join/extend paths so the first measured variant is
    // not penalised (fresh-JVM runs are several times slower).
    Engine.runPlan(planFor("HUGE", Queries.q8, cost, machines), Queries.q8,
                   new PartitionedGraph(g, machines), cfg.copy(timeLimitSec = 30.0))
    val rows = for ((qn, q) <- queries) yield {
      // Variants frequently produce the *same* plan (the paper notes the
      // optimisers agree on q7) — measure each distinct plan once.
      val plans    = variants.map(v => v -> planFor(v, q, cost, machines))
      val measured = scala.collection.mutable.Map.empty[PlanNode, Row]
      plans.map { case (variant, plan) =>
        val row = measured.getOrElseUpdate(plan, {
          val pg = new PartitionedGraph(g, machines)
          val m  = Engine.runPlan(plan, q, pg, cfg)
          Row(qn, variant, m.totalTimeSec, m.commTimeSec, m.results.get,
              completed = !m.timedOut)
        })
        row.copy(variant = variant)
      }
    }
    rows.flatten.toVector
  }

  def render(rows: Seq[Row]): String = Fmt.render(
    Seq("Query", "Plan", "time (comm)", "results"),
    rows.map(r => Seq(r.query, r.variant,
      (if (r.completed) Fmt.secs(r.seconds) else "OT") + f" (${Fmt.secs(r.commSeconds)})",
      r.results.toString)))
}
