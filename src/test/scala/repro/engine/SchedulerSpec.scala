package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.graph._

/** The BFS/DFS-adaptive scheduler's bounded-memory claims (§5.2):
  * Lemma 5.2 / Theorem 5.4 as executable checks over the real engine.
  */
class SchedulerSpec extends AnyFunSuite {

  val g    = TestGraphs.pl
  val cost = CostModel.of(g)

  private def runWith(q: QueryGraph, queueRows: Long, batch: Int = 128): Metrics = {
    val cfg = EngineConfig(machines = 2, workersPerMachine = 2, batchSize = batch,
      queueCapacityRows = queueRows, cacheCapacityEntries = 512)
    val plan = Optimiser.optimise(q, cost, OptimiserConfig.huge(2))
    Engine.runPlan(plan, q, new PartitionedGraph(g, 2), cfg)
  }

  test("Theorem 5.4: peak memory of a pull-only plan is bounded by queues + one batch overflow") {
    val q     = Queries.q3 // all PULL-EXTEND
    val queue = 256L
    val batch = 64
    val m     = runWith(q, queue, batch)
    assert(m.results.get == LocalEnum.countSubgraphs(q, g))
    // Per machine: each of ≤|V_q| queues holds ≤ queue + batch·D_G rows of
    // ≤|V_q| ids (4 bytes each). Two machines.
    val rows  = queue + batch.toLong * g.maxDegree
    val bound = 2L * q.n * rows * 4L * q.n
    assert(m.peakMemoryBytes <= bound,
      s"peak=${m.peakMemoryBytes} exceeds O(|V_q|^2 D_G) bound=$bound")
  }

  test("Exp-7 shape: memory grows monotonically from DFS to BFS queue sizes") {
    val peaks = Seq(1L, 1000L, 1000000L).map(qr => runWith(Queries.q2, qr).peakMemoryBytes)
    assert(peaks(0) <= peaks(1) && peaks(1) <= peaks(2), peaks.toString)
    assert(peaks(0) < peaks(2), "DFS must hold strictly less than BFS")
  }

  test("Exp-7 shape: every queue size yields the exact count") {
    val expected = LocalEnum.countSubgraphs(Queries.q2, g)
    for (qr <- Seq(1L, 100L, 10000L, 100000000L))
      assert(runWith(Queries.q2, qr).results.get == expected, s"queue=$qr")
  }

  test("deep chains (q6, 5 extends) stay exact under tiny queues") {
    val m = runWith(Queries.q6, 1L)
    assert(m.results.get == LocalEnum.countSubgraphs(Queries.q6, g))
  }

  test("join stages respect the barrier: push-join plan under DFS queues") {
    val q = Queries.q7
    val m = runWith(q, 1L)
    assert(m.results.get == LocalEnum.countSubgraphs(q, g))
  }

  // Algorithm 5's walk pinned by its footprint. One worker per machine and
  // no inter-machine stealing: each machine's queues are touched only by its
  // own thread, so peak memory and RPCs are deterministic.
  for ((q, name, pins) <- Seq(
         (Queries.q2, "q2", Seq(1L -> (13128L, 114L), 64L -> (13128L, 110L), 5000L -> (42456L, 107L))),
         (Queries.q6, "q6", Seq(1L -> (6756L, 35L), 64L -> (6756L, 32L), 5000L -> (11292L, 32L))));
       (queue, pinned) <- pins)
    test(s"Algorithm-5 schedule is pinned: $name, queue $queue rows, no inter-machine stealing") {
      val cfg = EngineConfig(machines = 3, workersPerMachine = 1, batchSize = 256,
        queueCapacityRows = queue, cacheCapacityEntries = 128, interStealing = false)
      val plan = Optimiser.optimise(q, cost, OptimiserConfig.huge(3))
      val m    = Engine.runPlan(plan, q, new PartitionedGraph(g, 3), cfg)
      assert(m.results.get == LocalEnum.countSubgraphs(q, g))
      assert((m.peakMemoryBytes, m.rpcs.get) == pinned)
    }

  test("Exp-8 shape: work stealing narrows the busy-time spread") {
    // Skewed work: the power-law graph concentrates wedges on few machines.
    def run(steal: Boolean): Metrics = {
      val cfg = EngineConfig(machines = 4, workersPerMachine = 1, batchSize = 512,
        queueCapacityRows = 100000, cacheCapacityEntries = 4096, interStealing = steal)
      val plan = Optimiser.optimise(Queries.q2, cost, OptimiserConfig.huge(4))
      Engine.runPlan(plan, Queries.q2, new PartitionedGraph(g, 4), cfg)
    }
    val withSteal = run(true)
    val noSteal   = run(false)
    assert(withSteal.results.get == noSteal.results.get)
    assert(withSteal.stealsInter.get > 0, "inter-machine stealing must engage on skew")
  }
}
