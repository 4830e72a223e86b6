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

  /** A pair of sorted id lists: either both drawn from 0..50 (the merge
    * path), or, in either order, one more than 16× the other (the gallop
    * path) with part of the short list taken from the long one.
    */
  val genListPair: Gen[(Array[Int], Array[Int])] = {
    def sortedArray(ids: scala.collection.Seq[Int]): Array[Int] = ids.distinct.sorted.toArray
    val balanced = for {
      a <- Gen.listOf(Gen.choose(0, 50))
      b <- Gen.listOf(Gen.choose(0, 50))
    } yield (sortedArray(a), sortedArray(b))
    val skewed = for {
      n     <- Gen.choose(0, 12)
      big   <- Gen.pick(16 * n + 1 + n, 0 to 1000).map(sortedArray)
      own   <- Gen.listOfN(n, Gen.choose(0, 1000))
      mine  <- Gen.choose(0, n).flatMap(Gen.pick(_, big.toSeq))
      swap  <- Gen.oneOf(false, true)
    } yield {
      val small = sortedArray(mine.toSeq ++ own.take(n - mine.size))
      if (swap) (big, small) else (small, big)
    }
    Gen.oneOf(balanced, skewed)
  }

  property("sorted intersection equals set intersection") =
    Prop.forAll(genListPair) { case (a, b) =>
      Intersect.sorted(a, b).toSeq == (a.toSet & b.toSet).toSeq.sorted
    }

  property("ranged intersection equals set intersection within [lo, hi)") =
    Prop.forAll(genListPair, Gen.choose(-1, 1001), Gen.choose(-1, 1001)) { case ((a, b), x, y) =>
      val (lo, hi) = (x min y, x max y)
      val got = Intersect.sorted(a, Intersect.lowerBound(a, lo), Intersect.lowerBound(a, hi),
                                 b, Intersect.lowerBound(b, lo), Intersect.lowerBound(b, hi))
      got.toSeq == (a.toSet & b.toSet).filter(v => lo <= v && v < hi).toSeq.sorted
    }

  property("ranged intersection equals set intersection of any two index ranges") =
    Prop.forAll(genListPair, Gen.listOfN(4, Gen.choose(0.0, 1.0))) { case ((a, b), cuts) =>
      def range(l: Array[Int], x: Double, y: Double) = ((l.length * (x min y)).toInt, (l.length * (x max y)).toInt)
      val (af, at) = range(a, cuts(0), cuts(1))
      val (bf, bt) = range(b, cuts(2), cuts(3))
      Intersect.sorted(a, af, at, b, bf, bt).toSeq == (a.slice(af, at).toSet & b.slice(bf, bt).toSet).toSeq.sorted
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
