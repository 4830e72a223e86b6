package repro.baselines

import repro.core._
import repro.engine._
import repro.graph.{DataGraph, QueryGraph}

/** Native configurations of the five compared systems (Table 1), all
  * running on the shared engine so differences come from exactly what the
  * paper attributes them to:
  *
  *  - SEED: bushy pushing hash joins of star relations, BFS scheduling —
  *    full materialisation + shuffling of both join sides.
  *  - BiGJoin: left-deep wco joins, *pushing* the partial results to each
  *    extension pivot's owner, BFS with batching, no cache.
  *  - BENU: the same wco procedure in DFS order, but every adjacency access
  *    goes through an external KV store (per-access RPC + modelled store
  *    latency, no RPC aggregation) with a local per-access cache.
  *  - RADS: StarJoin-style left-deep plan (stars materialised, then
  *    verified) with pulled stars and region-group(BFS)-style scheduling.
  *  - HUGE: optimal plan (Algorithm 1), pulling with LRBU + two-stage
  *    execution, BFS/DFS-adaptive scheduling, two-layer work stealing.
  */
object Systems {

  val names: Vector[String] = Vector("SEED", "BiGJoin", "BENU", "RADS", "HUGE")

  /** The execution plan each system would run for q on g (k machines). */
  def plan(name: String, q: QueryGraph, g: DataGraph, k: Int): PlanNode = {
    lazy val cost = CostModel.of(g)
    name match {
      case "SEED"    => LogicalPlans.seed(q, cost, k)
      case "BiGJoin" => LogicalPlans.bigJoin(q)
      case "BENU"    => LogicalPlans.benu(q)
      case "RADS"    => LogicalPlans.rads(q)
      case "HUGE"    => Optimiser.optimise(q, cost, OptimiserConfig.huge(k))
      case other     => sys.error(s"unknown system $other")
    }
  }

  /** The engine knobs each system implies. `base` carries the cluster shape
    * (machines, workers, batch size, network model, time limit).
    */
  def config(name: String, base: EngineConfig, g: DataGraph): EngineConfig = name match {
    case "SEED" =>
      // BFS over pushing hash joins; no pulling, no stealing, no cache use.
      // (Bounded only by a very large queue: full materialisation.)
      base.copy(queueCapacityRows = 4_000_000, interStealing = false)
    case "BiGJoin" =>
      // BFS with batching; its plan pushes partial results at every extension.
      base.copy(queueCapacityRows = 2_000_000, interStealing = false)
    case "BENU" =>
      // DFS; external store on every access; local per-access cache.
      base.copy(queueCapacityRows = 1, externalStore = true,
                cacheKind = CacheKind.CncrLru,
                cacheCapacityEntries = math.max(1, (0.3 * g.numVertices).toInt),
                interStealing = false)
    case "RADS" =>
      // Region-group (BFS-flavoured) scheduling over pulled stars.
      base.copy(queueCapacityRows = 16_000_000, cacheKind = CacheKind.Lrbu,
                cacheCapacityEntries = math.max(1, (0.3 * g.numVertices).toInt),
                interStealing = false)
    case "HUGE" =>
      // Adaptive scheduling, LRBU two-stage cache, stealing on.
      base.copy(cacheKind = CacheKind.Lrbu,
                cacheCapacityEntries = math.max(1, (0.3 * g.numVertices).toInt))
    case other => sys.error(s"unknown system $other")
  }

  /** Run system `name` on query q over g. Returns the engine metrics
    * (results, T/T_R/T_C model, C, M).
    */
  def run(name: String, q: QueryGraph, g: DataGraph, base: EngineConfig): Metrics = {
    val pg = new PartitionedGraph(g, base.machines)
    Engine.runPlan(plan(name, q, g, base.machines), q, pg, config(name, base, g))
  }
}
