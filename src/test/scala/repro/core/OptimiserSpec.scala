package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Queries, QueryGraph, TestGraphs}

class OptimiserSpec extends AnyFunSuite {
  import JoinAlgo._, CommMode._

  val cost = CostModel.of(TestGraphs.pl)
  val k    = 4

  test("cost model: ER estimates scale sensibly") {
    val cm = CostModel.er(1000, 5000)
    val edge  = cm.estimate(Seq(1, 1), 1)
    val wedge = cm.estimate(Seq(1, 2, 1), 2)
    val tri   = cm.estimate(Seq(2, 2, 2), 3)
    assert(edge > 0 && wedge > 0)
    assert(tri < wedge, "closing a wedge into a triangle must reduce the estimate")
    // An edge estimate must be ~2m (ordered matches).
    assert(math.abs(edge - 2 * 5000) / (2 * 5000.0) < 0.01)
  }

  test("cost model: Chung-Lu edge estimate equals 2m, skew raises cliques") {
    val cm = CostModel.of(TestGraphs.pl)
    val edge = cm.estimate(Seq(1, 1), 1)
    assert(math.abs(edge - 2.0 * TestGraphs.pl.numEdges) < 1e-6)
    // On a skewed graph, Chung-Lu triangle estimates exceed ER's.
    val er = CostModel.er(TestGraphs.pl.numVertices.toLong, TestGraphs.pl.numEdges)
    assert(cm.estimate(Seq(2, 2, 2), 3) > er.estimate(Seq(2, 2, 2), 3))
  }

  for ((name, q) <- Queries.all)
    test(s"optimal plan for $name is valid and covers the query") {
      val plan = Optimiser.optimise(q, cost, OptimiserConfig.huge(k))
      PlanNode.validate(plan, q)
      assert(plan.units.forall(_.isStar))
    }

  // Plan *shape* expectations hold at real-graph scale (Figure 1 uses LJ);
  // on a 300-vertex test graph k|E_G| is not negligible and shapes differ.
  val ljScale = CostModel.fromStats(4_847_571L, 43_369_619L, 20_333)

  for ((name, q) <- Queries.all)
    test(s"$name plan at LJ scale is valid and compiles to a dataflow") {
      val plan = Optimiser.optimise(q, ljScale, OptimiserConfig.huge(10))
      PlanNode.validate(plan, q)
      Dataflow.fromPlan(plan, q, q.symmetryConditions)
    }

  test("4-clique plan is a left-deep chain of pulling wco joins (Figure 1b)") {
    val plan = Optimiser.optimise(Queries.q3, ljScale, OptimiserConfig.huge(10))
    assert(plan.joins.nonEmpty)
    assert(plan.joins.forall(j => j.setting.algo == Wco && j.setting.comm == Pulling))
  }

  test("5-path plan contains a pushing hash join of two 2-stars (Figure 1d)") {
    val plan = Optimiser.optimise(Queries.q7, ljScale, OptimiserConfig.huge(10))
    val top  = plan.joins.last
    assert(top.setting == PhysicalSetting(Hash, Pushing, -1),
      s"expected a pushing top join, got ${top.setting}")
    assert(plan.units.size == 2 && plan.units.forall(_.edges.size == 2),
      s"expected two 2-star units, got ${plan.units.map(_.edges)}")
  }

  test("SEED space only produces pushing hash joins") {
    for ((_, q) <- Queries.all) {
      val plan = Optimiser.optimise(q, cost, OptimiserConfig.seed(k))
      assert(plan.joins.forall(_.setting == PhysicalSetting(Hash, Pushing, -1)))
    }
  }

  test("GraphFlow space is left-deep; EmptyHeaded may be bushy") {
    for ((_, q) <- Queries.all) {
      val gf = Optimiser.optimise(q, cost, OptimiserConfig.graphFlow)
      assert(gf.isLeftDeep)
      PlanNode.validate(Optimiser.optimise(q, cost, OptimiserConfig.emptyHeaded), q)
    }
  }

  test("pulling reduces plan cost when intermediates dwarf the graph") {
    // On the square, HUGE's space must not cost more than SEED's space.
    def costOf(cfg: OptimiserConfig): Double = {
      val plan = Optimiser.optimise(Queries.q1, cost, cfg)
      // Re-derive the DP cost by summing the same terms over the plan.
      def rec(p: PlanNode): Double = p match {
        case UnitScan(u) => cost.estimate(u)
        case JoinNode(s, l, r, st) =>
          val comm =
            if (st.comm == Pulling) cfg.nMachines.toDouble * cost.m
            else cost.estimate(l.sub) + cost.estimate(r.sub)
          rec(l) + rec(r) + cost.estimate(s) + cfg.commWeight * comm
      }
      rec(plan)
    }
    assert(costOf(OptimiserConfig.huge(k)) <= costOf(OptimiserConfig.seed(k)))
  }

  test("Equation 3 configuration") {
    val q = Queries.q3 // 4-clique
    def sq(es: (Int, Int)*) = SubQuery(q, es.toSet)
    // Complete star join: r = star(3; {0,1,2}), leaves all matched.
    val l  = sq((0, 1), (0, 2), (1, 2))
    val r  = sq((0, 3), (1, 3), (2, 3))
    assert(PhysicalSetting.configure(l, r) == PhysicalSetting(Wco, Pulling, 3))
    // C1: r = star rooted at 0 (matched in l), leaf 3 unmatched.
    val r2 = sq((0, 3))
    val s2 = PhysicalSetting.configure(sq((0, 1), (1, 2)), r2)
    assert(s2.comm == Pulling)
    // Fallback: no shared star root, not complete -> pushing hash join.
    val p = Queries.q7
    val s3 = PhysicalSetting.configure(
      SubQuery(p, Set((0, 1), (1, 2))), SubQuery(p, Set((2, 3), (3, 4))))
    assert(s3 == PhysicalSetting(Hash, Pushing, -1))
  }

  test("plans for star queries are bare unit scans") {
    val star = QueryGraph.star(4, 0, Seq(1, 2, 3))
    val plan = Optimiser.optimise(star, cost, OptimiserConfig.huge(k))
    assert(plan.isInstanceOf[UnitScan])
  }

  test("optimiser rejects disconnected or empty queries") {
    intercept[IllegalArgumentException] {
      Optimiser.optimise(QueryGraph(4, Seq((0, 1), (2, 3))), cost)
    }
  }
}
