package repro.spark

import repro.{Oracle, SparkSpec}
import repro.core._
import repro.graph._

/** The Spark (Catalyst) incarnation of HUGE versus the reference enumerator
  * and the DuckDB oracle.
  */
class SparkExecutorSpec extends SparkSpec {
  lazy val cost = CostModel.of(TestGraphs.pl)
  lazy val plEdges = GraphDF.edges(spark, TestGraphs.pl).cache()
  lazy val plAdj   = GraphDF.adjacency(spark, TestGraphs.pl).cache()
  lazy val roadEdges = GraphDF.edges(spark, TestGraphs.road).cache()
  lazy val roadAdj   = GraphDF.adjacency(spark, TestGraphs.road).cache()

  for ((qn, q) <- Queries.all)
    test(s"Spark executor matches reference on pl: $qn (HUGE plan)") {
      val plan = Optimiser.optimise(q, cost, OptimiserConfig.huge(4))
      val op   = Dataflow.fromPlan(plan, q, q.symmetryConditions)
      assert(SparkExecutor.count(op, plEdges, plAdj) ==
        LocalEnum.countSubgraphs(q, TestGraphs.pl))
    }

  val variants: Seq[(String, QueryGraph => PlanNode)] = Seq(
    "SEED"    -> ((q: QueryGraph) => LogicalPlans.seed(q, cost, 4)),
    "BiGJoin" -> ((q: QueryGraph) => LogicalPlans.bigJoin(q)),
    "RADS"    -> ((q: QueryGraph) => LogicalPlans.rads(q)),
    "EH"      -> ((q: QueryGraph) => LogicalPlans.emptyHeaded(q, cost)),
  )
  for ((pn, mk) <- variants; (qn, q) <- Seq("q1" -> Queries.q1, "q7" -> Queries.q7))
    test(s"Spark executor with plugged $pn plan: $qn") {
      val op = Dataflow.fromPlan(mk(q), q, q.symmetryConditions)
      assert(SparkExecutor.count(op, plEdges, plAdj) ==
        LocalEnum.countSubgraphs(q, TestGraphs.pl))
    }

  for ((qn, q) <- Seq("q1" -> Queries.q1, "q3" -> Queries.q3, "q7" -> Queries.q7))
    test(s"Spark executor agrees with the DuckDB oracle: $qn on road") {
      val plan = Optimiser.optimise(q, cost, OptimiserConfig.huge(4))
      val op   = Dataflow.fromPlan(plan, q, q.symmetryConditions)
      Oracle.assertEquivalent(
        SparkExecutor.countDf(op, roadEdges, roadAdj),
        SqlGen.countSubgraphsSql(q, "e"),
        "e" -> roadEdges)
    }

  test("match counting (no symmetry conditions) on Spark") {
    val q    = Queries.q1
    val plan = Optimiser.optimise(q, cost)
    val op   = Dataflow.fromPlan(plan, q, Nil)
    assert(SparkExecutor.count(op, plEdges, plAdj) ==
      LocalEnum.countMatches(q, TestGraphs.pl))
  }

  test("countSubgraphs end-to-end helper") {
    assert(SparkExecutor.countSubgraphs(Queries.triangle, cost, plEdges, plAdj) ==
      LocalEnum.countSubgraphs(Queries.triangle, TestGraphs.pl))
  }

  test("compiled columns are the matched query vertices") {
    val q    = Queries.q4
    val plan = Optimiser.optimise(q, cost)
    val op   = Dataflow.fromPlan(plan, q, q.symmetryConditions)
    val df   = SparkExecutor.compile(op, plEdges, plAdj)
    assert(df.columns.toSet == (0 until q.n).map(i => s"v$i").toSet)
  }
}
