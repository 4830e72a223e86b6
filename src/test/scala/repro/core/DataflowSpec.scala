package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph._

/** The central correctness matrix: every plan variant for every query is
  * translated (Algorithm 2 + §5.2) and interpreted, and must produce the
  * exact subgraph count of the reference backtracking enumerator —
  * Remark 3.2's "existing works can be plugged into HUGE" as a test.
  */
class DataflowSpec extends AnyFunSuite {

  val cost = CostModel.of(TestGraphs.pl)
  val k    = 4

  def planVariants(q: QueryGraph): Seq[(String, PlanNode)] = Seq(
    "HUGE"      -> Optimiser.optimise(q, cost, OptimiserConfig.huge(k)),
    "SEED"      -> LogicalPlans.seed(q, cost, k),
    "EH"        -> LogicalPlans.emptyHeaded(q, cost),
    "GF"        -> LogicalPlans.graphFlow(q, cost),
    "BiGJoin"   -> LogicalPlans.bigJoin(q),
    "BENU"      -> LogicalPlans.benu(q),
    "HUGE-WCO"  -> LogicalPlans.hugeWco(q),
    "StarJoin"  -> LogicalPlans.starJoin(q),
    "RADS"      -> LogicalPlans.rads(q),
  )

  val graphs = Seq("pl" -> TestGraphs.pl, "road" -> TestGraphs.road)

  for ((qName, q) <- Queries.all; (pName, _) <- planVariants(q).take(1))
    test(s"dataflow for $qName/$pName binds all vertices and covers all edges") {
      for ((planName, plan) <- planVariants(q)) {
        val op = Dataflow.fromPlan(plan, q, q.symmetryConditions)
        assert(op.matched.toSet == (0 until q.n).toSet, s"$planName")
        assert(op.covered == q.edges.toSet, s"$planName")
      }
    }

  for ((qName, q) <- Queries.all; (gName, g) <- graphs; (pName, plan) <- planVariants(q))
    test(s"plugged plan $pName for $qName on $gName matches the reference count") {
      val expected = LocalEnum.countSubgraphs(q, g)
      val op       = Dataflow.fromPlan(plan, q, q.symmetryConditions)
      assert(SimpleExec.count(op, g) == expected)
    }

  for ((qName, q) <- Queries.all)
    test(s"match counts (no symmetry breaking) also agree for $qName") {
      val g  = TestGraphs.er
      val op = Dataflow.fromPlan(Optimiser.optimise(q, cost), q, Nil)
      assert(SimpleExec.count(op, g) == LocalEnum.countMatches(q, g))
    }

  test("ScanEdge emits both directions minus symmetry-broken half") {
    val g  = TestGraphs.pl
    val op = ScanEdge(0, 1, Vector.empty)
    assert(SimpleExec.count(op, g) == 2 * g.numEdges)
    val broken = ScanEdge(0, 1, Vector((0, 1)))
    assert(SimpleExec.count(broken, g) == g.numEdges)
  }

  test("verify-extend is a pure filter (no new column)") {
    val q    = Queries.q4 // diamond: square 0-1-2-3 + chord (0,2)
    val scan = ScanEdge(0, 1, Vector.empty)
    val e1   = PullExtend(scan, Vector(1), 2, verify = false, Vector.empty)
    val e2   = PullExtend(e1, Vector(2), 3, verify = false, Vector.empty)
    val e3   = PullExtend(e2, Vector(3), 0, verify = true, Vector.empty)  // close square
    val e4   = PullExtend(e3, Vector(2), 0, verify = true, Vector.empty)  // chord
    assert(e4.matched == Vector(0, 1, 2, 3))
    assert(e4.covered == q.edges.toSet)
    val g = TestGraphs.pl
    assert(SimpleExec.count(e4, g) == LocalEnum.countMatches(q, g))
  }

  test("PullExtend constructor rejects inconsistent verify flags and pivots") {
    val scan = ScanEdge(0, 1, Vector.empty)
    intercept[IllegalArgumentException] {
      PullExtend(scan, Vector(0), 1, verify = false, Vector.empty) // 1 already matched
    }
    intercept[IllegalArgumentException] {
      PullExtend(scan, Vector(5), 2, verify = false, Vector.empty) // pivot unmatched
    }
  }

  test("PushJoin key and column layout") {
    val l = PullExtend(ScanEdge(0, 1, Vector.empty), Vector(1), 2, verify = false, Vector.empty)
    val r = ScanEdge(2, 3, Vector.empty)
    val j = PushJoin(l, r, Vector.empty)
    assert(j.key == Vector(2))
    assert(j.matched == Vector(0, 1, 2, 3))
    intercept[IllegalArgumentException] {
      PushJoin(ScanEdge(0, 1, Vector.empty), ScanEdge(2, 3, Vector.empty), Vector.empty)
    }
  }

  test("execution sequence linearises the tree left-first") {
    val q    = Queries.q7
    val plan = Optimiser.optimise(q, cost, OptimiserConfig.huge(k))
    val op   = Dataflow.fromPlan(plan, q, q.symmetryConditions)
    val seq  = op.sequence
    assert(seq.last eq op)
    assert(seq.count(_.isInstanceOf[PushJoin]) == plan.joins.count(_.setting.comm == CommMode.Pushing))
  }

  test("each extend carries its plan join's communication mode") {
    def comms(plan: PlanNode, q: QueryGraph): Set[CommMode] =
      Dataflow.fromPlan(plan, q, q.symmetryConditions).sequence
        .collect { case e: PullExtend => e.comm }.toSet
    for (q <- Seq(Queries.q1, Queries.q3)) {
      assert(comms(LogicalPlans.bigJoin(q), q) == Set(CommMode.Pushing))
      assert(comms(LogicalPlans.benu(q), q) == Set(CommMode.Pulling))
      assert(comms(Optimiser.optimise(q, cost, OptimiserConfig.huge(k)), q) == Set(CommMode.Pulling))
    }
  }
}
