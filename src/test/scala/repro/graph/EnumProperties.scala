package repro.graph

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.propBoolean
import repro.core._
import repro.engine._

/** Property-based checks over random data graphs and random query graphs:
  * the whole plan/translate/execute pipeline agrees with the reference
  * enumerator on arbitrary inputs, not just the curated query set.
  */
object EnumProperties extends Properties("Enum") {

  val genDataGraph: Gen[DataGraph] = for {
    n    <- Gen.choose(8, 60)
    m    <- Gen.choose(n, 4 * n)
    seed <- Gen.choose(0L, 1000000L)
  } yield GraphGen.er(n, m, seed)

  /** Random connected query graph: a random spanning tree plus extra edges. */
  val genQueryGraph: Gen[QueryGraph] = for {
    n     <- Gen.choose(3, 5)
    seed  <- Gen.choose(0L, 1000000L)
  } yield {
    val rng  = new scala.util.Random(seed)
    val tree = (1 until n).map(v => (rng.nextInt(v), v))
    val all  = for { a <- 0 until n; b <- a + 1 until n } yield (a, b)
    val extra = rng.shuffle(all.filterNot(tree.contains)).take(rng.nextInt(3))
    QueryGraph(n, tree ++ extra)
  }

  property("matches = subgraphs * |Aut| on random graphs") =
    Prop.forAll(genDataGraph, genQueryGraph) { (g, q) =>
      val total  = LocalEnum.countMatches(q, g)
      val broken = LocalEnum.countMatches(q, g, q.symmetryConditions)
      total == broken * q.automorphisms.size
    }

  property("optimised dataflow equals reference count on random inputs") =
    Prop.forAll(genDataGraph, genQueryGraph) { (g, q) =>
      val cost = CostModel.er(math.max(2, g.numVertices).toLong, math.max(1, g.numEdges))
      val plan = Optimiser.optimise(q, cost, OptimiserConfig.huge(3))
      val op   = Dataflow.fromPlan(plan, q, q.symmetryConditions)
      SimpleExec.count(op, g) == LocalEnum.countSubgraphs(q, g)
    }

  property("SEED-space dataflow equals reference count on random inputs") =
    Prop.forAll(genDataGraph, genQueryGraph) { (g, q) =>
      val cost = CostModel.er(math.max(2, g.numVertices).toLong, math.max(1, g.numEdges))
      val plan = Optimiser.optimise(q, cost, OptimiserConfig.seed(3))
      val op   = Dataflow.fromPlan(plan, q, q.symmetryConditions)
      SimpleExec.count(op, g) == LocalEnum.countSubgraphs(q, g)
    }

  property("wco (BiGJoin) plan equals reference count on random inputs") =
    Prop.forAll(genDataGraph, genQueryGraph) { (g, q) =>
      val op = Dataflow.fromPlan(LogicalPlans.bigJoin(q), q, q.symmetryConditions)
      SimpleExec.count(op, g) == LocalEnum.countSubgraphs(q, g)
    }

  /** 1..max with each power-of-two range [2^b, 2^(b+1)) equally likely, so
    * small values stay common under a large bound.
    */
  def logUniform(max: Long): Gen[Long] = for {
    bits <- Gen.choose(0, 63 - java.lang.Long.numberOfLeadingZeros(max))
    n    <- Gen.choose(1L << bits, math.min(max, (2L << bits) - 1))
  } yield n

  /** A small engine configuration: 1–5 machines of 1–4 workers, batches of
    * 1–4096 rows (mostly small, so the worker pool splits them), chunks of
    * 1–64, queues of 1–10⁶ rows or unbounded (DFS to BFS), every cache
    * design with 1 entry, 8 or the default (the small ones evict, and
    * overflow while a batch holds its pivots sealed), a join
    * spill threshold of 1 row (every row its own run, so the merge takes
    * many runs), 4 rows or the default, and the external store and
    * inter-machine stealing each on or off.
    */
  val genEngineConfig: Gen[EngineConfig] = for {
    machines <- Gen.choose(1, 5)
    workers  <- Gen.choose(1, 4)
    batch    <- logUniform(4096).map(_.toInt)
    chunk    <- Gen.choose(1, 64)
    queue    <- Gen.frequency(4 -> logUniform(1000000L), 1 -> Gen.const(Long.MaxValue))
    cache    <- Gen.oneOf(CacheKind.all)
    capacity <- Gen.oneOf(1, 8, EngineConfig().cacheCapacityEntries)
    spill    <- Gen.oneOf(1, 4, EngineConfig().spillThresholdRows)
    external <- Gen.oneOf(false, true)
    steal    <- Gen.oneOf(false, true)
  } yield EngineConfig(machines = machines, workersPerMachine = workers, batchSize = batch,
                       chunkSize = chunk, queueCapacityRows = queue, cacheKind = cache,
                       cacheCapacityEntries = capacity,
                       spillThresholdRows = spill, externalStore = external,
                       interStealing = steal)

  def engineMatchesReference(planFor: (QueryGraph, DataGraph, Int) => PlanNode): Prop =
    Prop.forAll(genDataGraph, genQueryGraph, genEngineConfig) { (g, q, cfg) =>
      val plan = planFor(q, g, cfg.machines)
      val m    = Engine.runPlan(plan, q, new PartitionedGraph(g, cfg.machines), cfg)
      (m.results.get == LocalEnum.countSubgraphs(q, g)) :| s"$cfg"
    }

  def optimised(space: Int => OptimiserConfig)(q: QueryGraph, g: DataGraph, k: Int): PlanNode = {
    val cost = CostModel.er(math.max(2, g.numVertices).toLong, math.max(1, g.numEdges))
    Optimiser.optimise(q, cost, space(k))
  }

  property("engine equals reference count on random inputs and configs (HUGE space)") =
    engineMatchesReference(optimised(OptimiserConfig.huge))

  property("engine equals reference count on random inputs and configs (SEED space)") =
    engineMatchesReference(optimised(OptimiserConfig.seed))

  property("engine equals reference count on random inputs and configs (BiGJoin plan)") =
    engineMatchesReference((q, _, _) => LogicalPlans.bigJoin(q))

  property("sorted intersection equals set intersection") =
    Prop.forAll(Gen.listOf(Gen.choose(0, 50)), Gen.listOf(Gen.choose(0, 50))) { (a, b) =>
      val sa = a.distinct.sorted.toArray
      val sb = b.distinct.sorted.toArray
      Intersect.sorted(sa, sb).toSet == (sa.toSet & sb.toSet)
    }

  property("generated graphs are well-formed") =
    Prop.forAll(genDataGraph) { g =>
      (0 until g.numVertices).forall { v =>
        val ns = g.neighbours(v)
        ns.sameElements(ns.distinct.sorted) && !ns.contains(v) &&
          ns.forall(w => g.neighbours(w).contains(v))
      }
    }
}
