package repro.spark

import repro.SparkSpec
import repro.core._
import repro.graph._

class CommAccountingSpec extends SparkSpec {

  lazy val cost  = CostModel.of(TestGraphs.pl)
  lazy val edges = GraphDF.edges(spark, TestGraphs.pl).cache()
  lazy val adj   = GraphDF.adjacency(spark, TestGraphs.pl).cache()

  private def opFor(q: QueryGraph, cfg: OptimiserConfig = OptimiserConfig.huge(4)): Op = {
    val plan = Optimiser.optimise(q, cost, cfg)
    Dataflow.fromPlan(plan, q, q.symmetryConditions)
  }

  test("pure pulling plan pushes nothing; pulls are bounded by k|E|") {
    val op = opFor(Queries.q3) // all PULL-EXTEND at any scale for the clique
    val (pushed, pulled) = CommAccounting.totals(op, edges, adj, k = 4)
    assert(pushed == 0)
    assert(pulled > 0)
    val g = TestGraphs.pl
    val extendCount = op.sequence.count(_.isInstanceOf[PullExtend])
    // Per extend, per machine, at most the whole graph: 4 bytes per vertex id
    // + 8 bytes per directed edge entry.
    val bound = extendCount.toLong * 4 * (4L * g.numVertices + 8L * g.numEdges)
    assert(pulled <= bound, s"pulled=$pulled bound=$bound")
  }

  test("one machine pulls nothing") {
    val (pushed, pulled) = CommAccounting.totals(opFor(Queries.q1), edges, adj, k = 1)
    assert(pushed == 0 && pulled == 0)
  }

  test("pushing plan (SEED space) pushes the materialised relations") {
    val op = opFor(Queries.q7, OptimiserConfig.seed(4))
    val per = CommAccounting.measure(op, edges, adj, k = 4)
    assert(per.exists(c => c.op.startsWith("PUSH-JOIN") && c.pushedBytes > 0))
  }

  test("pushing cost grows with intermediate size (wedges vs edges)") {
    // SEED plan of q1 joins two wedge relations: pushed bytes must exceed
    // what shuffling the edge relations alone would cost.
    val op = opFor(Queries.q1, OptimiserConfig.seed(4))
    val (pushed, _) = CommAccounting.totals(op, edges, adj, 4)
    val edgeBytes = 2L * TestGraphs.pl.numEdges * 2 * 4 // both relations, 2 cols
    assert(pushed > edgeBytes)
  }

  test("per-operator report names every non-scan operator") {
    val op  = opFor(Queries.q7)
    val per = CommAccounting.measure(op, edges, adj, 4)
    val nonScan = op.sequence.count(o => !o.isInstanceOf[ScanEdge])
    assert(per.size == nonScan)
  }

  test("BiGJoin plan's pushing extends push what the engine pushes, and pull nothing") {
    val q      = Queries.q1
    val op     = Dataflow.fromPlan(LogicalPlans.bigJoin(q), q, q.symmetryConditions)
    val engine = repro.engine.Engine.run(op, new repro.engine.PartitionedGraph(TestGraphs.pl, 3),
      repro.engine.EngineConfig(machines = 3, workersPerMachine = 1, interStealing = false))
    val (pushed, pulled) = CommAccounting.totals(op, edges, adj, k = 3)
    assert(pulled == 0)
    assert(pushed == engine.bytesPushed.get && pushed == 54816L, s"pushed=$pushed engine=${engine.bytesPushed.get}")
  }

  test("more machines pull more (cache-less bound grows with k)") {
    val op = opFor(Queries.q1)
    val p2 = CommAccounting.totals(op, edges, adj, 2)._2
    val p8 = CommAccounting.totals(op, edges, adj, 8)._2
    assert(p8 > p2)
  }
}
