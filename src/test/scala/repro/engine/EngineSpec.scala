package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.graph._
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._

/** End-to-end correctness of the distributed engine: every configuration
  * (scheduling mode, cache design, communication mode, stealing, spilling)
  * must return the exact reference subgraph count.
  */
class EngineSpec extends AnyFunSuite {

  val cost = CostModel.of(TestGraphs.pl)

  def base(k: Int = 3): EngineConfig = EngineConfig(
    machines = k, workersPerMachine = 2, batchSize = 256,
    queueCapacityRows = 5000, cacheCapacityEntries = 128)

  def expected(q: QueryGraph, g: DataGraph): Long = LocalEnum.countSubgraphs(q, g)

  def hugeRun(q: QueryGraph, g: DataGraph, cfg: EngineConfig,
              plan: QueryGraph => PlanNode = null): Metrics = {
    val p  = if (plan == null) Optimiser.optimise(q, cost, OptimiserConfig.huge(cfg.machines)) else plan(q)
    val pg = new PartitionedGraph(g, cfg.machines)
    Engine.runPlan(p, q, pg, cfg)
  }

  // --- core correctness matrix ---------------------------------------------
  for ((qn, q) <- Queries.all; (gn, g) <- Seq("pl" -> TestGraphs.pl, "road" -> TestGraphs.road))
    test(s"engine count matches reference: $qn on $gn (HUGE plan)") {
      assert(hugeRun(q, g, base()).results.get == expected(q, g))
    }

  for ((qn, q) <- Seq("q1" -> Queries.q1, "q3" -> Queries.q3, "q7" -> Queries.q7))
    test(s"engine count with k=1 machine: $qn") {
      assert(hugeRun(q, TestGraphs.pl, base(1)).results.get == expected(q, TestGraphs.pl))
    }

  // --- plugged baseline plans ----------------------------------------------
  val pluggedPlans: Seq[(String, QueryGraph => PlanNode)] = Seq(
    "SEED"     -> ((q: QueryGraph) => LogicalPlans.seed(q, cost, 3)),
    "BiGJoin"  -> ((q: QueryGraph) => LogicalPlans.bigJoin(q)),
    "BENU"     -> ((q: QueryGraph) => LogicalPlans.benu(q)),
    "RADS"     -> ((q: QueryGraph) => LogicalPlans.rads(q)),
    "StarJoin" -> ((q: QueryGraph) => LogicalPlans.starJoin(q)),
    "EH"       -> ((q: QueryGraph) => LogicalPlans.emptyHeaded(q, cost)),
    "GF"       -> ((q: QueryGraph) => LogicalPlans.graphFlow(q, cost)),
  )
  for ((pn, mk) <- pluggedPlans; (qn, q) <- Seq("q1" -> Queries.q1, "q2" -> Queries.q2, "q7" -> Queries.q7))
    test(s"plugged $pn plan on engine: $qn") {
      assert(hugeRun(q, TestGraphs.pl, base(), mk).results.get == expected(q, TestGraphs.pl))
    }

  // --- scheduling modes -----------------------------------------------------
  test("DFS-style scheduling (queue capacity 1) is exact") {
    val cfg = base().copy(queueCapacityRows = 1)
    assert(hugeRun(Queries.q1, TestGraphs.pl, cfg).results.get == expected(Queries.q1, TestGraphs.pl))
  }

  test("BFS-style scheduling (huge queues) is exact") {
    val cfg = base().copy(queueCapacityRows = Long.MaxValue / 2)
    assert(hugeRun(Queries.q1, TestGraphs.pl, cfg).results.get == expected(Queries.q1, TestGraphs.pl))
  }

  test("adaptive scheduling bounds queued memory: small queues => smaller peak") {
    val big   = hugeRun(Queries.q2, TestGraphs.pl, base().copy(queueCapacityRows = Long.MaxValue / 2))
    val small = hugeRun(Queries.q2, TestGraphs.pl, base().copy(queueCapacityRows = 64))
    assert(small.peakMemoryBytes < big.peakMemoryBytes,
      s"small=${small.peakMemoryBytes} big=${big.peakMemoryBytes}")
  }

  // --- cache designs --------------------------------------------------------
  for (kind <- CacheKind.all)
    test(s"cache design $kind is exact") {
      val cfg = base().copy(cacheKind = kind)
      assert(hugeRun(Queries.q1, TestGraphs.pl, cfg).results.get == expected(Queries.q1, TestGraphs.pl))
    }

  test("cache hit rate grows with capacity") {
    val tinyCache = hugeRun(Queries.q1, TestGraphs.pl, base().copy(cacheCapacityEntries = 2))
    val bigCache  = hugeRun(Queries.q1, TestGraphs.pl, base().copy(cacheCapacityEntries = 100000))
    assert(bigCache.hitRate > tinyCache.hitRate)
    assert(bigCache.bytesPulled.get < tinyCache.bytesPulled.get)
  }

  // --- communication modes --------------------------------------------------
  test("pure pulling plan pushes zero bytes; k=1 pulls zero bytes") {
    val m = hugeRun(Queries.q3, TestGraphs.pl, base())
    assert(m.bytesPushed.get == 0, "4-clique plan is all PULL-EXTEND")
    val solo = hugeRun(Queries.q3, TestGraphs.pl, base(1))
    assert(solo.bytesPulled.get == 0, "one machine owns everything")
  }

  test("BiGJoin plan's pushing extends count pushed bytes instead of pulls") {
    val m = hugeRun(Queries.q1, TestGraphs.pl, base(), LogicalPlans.bigJoin)
    assert(m.results.get == expected(Queries.q1, TestGraphs.pl))
    assert(m.bytesPushed.get > 0 && m.bytesPulled.get == 0)
  }

  test("externalStore (BENU-native) counts kv accesses") {
    val cfg = base().copy(externalStore = true, cacheKind = CacheKind.CncrLru,
                          cacheCapacityEntries = 64, queueCapacityRows = 1)
    val m = hugeRun(Queries.q1, TestGraphs.pl, cfg, LogicalPlans.benu)
    assert(m.results.get == expected(Queries.q1, TestGraphs.pl))
    assert(m.kvAccesses.get > 0)
    assert(m.modelledComputeSec > 0)
  }

  test("push-join plan (5-path) is exact and pushes bytes") {
    val m = hugeRun(Queries.q7, TestGraphs.pl, base())
    assert(m.results.get == expected(Queries.q7, TestGraphs.pl))
    assert(m.bytesPushed.get > 0, "the top join shuffles both sides")
  }

  test("SEED plan (all pushing hash joins) is exact on a bushy query") {
    val m = hugeRun(Queries.q5, TestGraphs.pl, base(), q => LogicalPlans.seed(q, cost, 3))
    assert(m.results.get == expected(Queries.q5, TestGraphs.pl))
  }

  // --- spilling -------------------------------------------------------------
  /** `pl` relabelled so every vertex id is at least 65,536 (the low ids are
    * isolated): even ids move up by 65,536 and odd ids by 131,072, so join
    * keys also differ above their low 16 bits.
    */
  lazy val plHighIds: DataGraph = {
    def relabel(v: Int) = v + (1 << 16) * (1 + v % 2)
    DataGraph.fromEdges((1 << 17) + TestGraphs.pl.numVertices,
      TestGraphs.pl.edgeIterator.map { case (a, b) => (relabel(a), relabel(b)) })
  }

  test("hash join spills to disk when the buffer threshold is tiny, still exact") {
    val cfg = base().copy(spillThresholdRows = 16)
    for (g <- Seq(TestGraphs.pl, plHighIds)) {
      val m = hugeRun(Queries.q7, g, cfg)
      assert(m.results.get == expected(Queries.q7, g))
      assert(m.spilledBytes.get > 0)
    }
  }

  // --- stealing -------------------------------------------------------------
  test("inter-machine stealing preserves counts") {
    val withSteal = hugeRun(Queries.q2, TestGraphs.pl, base().copy(interStealing = true))
    val noSteal   = hugeRun(Queries.q2, TestGraphs.pl, base().copy(interStealing = false))
    assert(withSteal.results.get == noSteal.results.get)
  }

  // Machine 1 has one batch queued at the stage's only extend; machine 0
  // steals it.
  test("StealWork moves a batch into the thief's own queue") {
    val cfg     = base(2)
    val metrics = new Metrics(2, cfg.net)
    val pg      = new PartitionedGraph(TestGraphs.pl, 2)
    val pools   = Array.tabulate(2)(new WorkerPool(_, 1, metrics))
    try {
      val stage = Stages.compile(PullExtend(ScanEdge(0, 1, Vector()), Vector(0, 1), 2, verify = false,
                                            Vector()), cfg, metrics).head
      val board = new StageBoard(stage, pg, pools.map(new Extender(_, pg, cfg, metrics, () => false)),
                                 cfg, metrics, () => false)
      val batch = Array(Array(0, 1), Array(1, 2), Array(2, 3))
      board(1).queues(0).enqueue(batch)
      assert(StealWork(0, board, metrics))
      val bytes = Kernels.batchBytes(batch)
      assert(Seq(metrics.stealsInter.get, metrics.rpcs.get, metrics.stolenBytes.get) == Seq(1L, 1L, bytes))
      assert(metrics.heldBytes(0) == bytes && metrics.heldBytes(1) == 0L)
      assert(!StealWork(0, board, metrics), "nothing is left to steal")
      assert(board(1).queues(0).isEmpty)
      assert(board(0).queues(0).tryDequeue() eq batch)
    } finally pools.foreach(_.shutdown())
  }

  test("intra-machine stealing engages on skewed work") {
    val cfg = base(1).copy(workersPerMachine = 4, chunkSize = 4, batchSize = 4096)
    val m   = hugeRun(Queries.q2, TestGraphs.pl, cfg)
    assert(m.results.get == expected(Queries.q2, TestGraphs.pl))
    assert(m.stealsIntra.get > 0, "4 workers on chunked batches must steal")
  }

  // --- Algorithm 4's fetch scope ------------------------------------------------
  // K_16 on two machines, an LRBU of one entry and a one-column pivot: each
  // batch seals its remote pivots, so the cache overflows by one batch and
  // the next batch's fetch evicts the last one's.
  test("fetch scopes are flat: one batch at a time holds its pivots") {
    val pg      = new PartitionedGraph(DataGraph.complete(16), 2)
    val remote  = (0 until 16).filter(pg.owner(_) == 1)
    val metrics = new Metrics(2, NetworkModel())
    val adj     = new Adjacency(0, pg, NbrCache(CacheKind.Lrbu, 1), externalStore = false, metrics)
    val batches = remote.take(4).grouped(2).map(_.map(Array(_)).toArray).toSeq
    for (batch <- batches) {
      adj.fetch(batch, Array(0))
      assertThrows[IllegalStateException](adj.fetch(batch, Array(0)))
      for (row <- batch) assert(adj.read(row(0)).sameElements(pg.serveNbrs(row(0))))
      adj.release()
    }
    assert(metrics.cacheMisses.get == 4)
  }

  // K_40 on three machines, read from machine 0. Three remote pivots are
  // cached by an earlier batch (hits) and four are not (misses, two owned
  // by each other machine); rows repeat pivots of the row before in the
  // same column, and a miss recurs after a gap. The capacity is exactly
  // the seven remote pivots, so after release() each fresh insert evicts
  // one of them, in the order the fetch stage sealed them.
  test("the fetch stage pulls each remote pivot once and seals them in table order") {
    val n       = 40
    val pg      = new PartitionedGraph(DataGraph.complete(n), 3)
    def ofOwner(o: Int) = (0 until n).filter(pg.owner(_) == o)
    val Seq(l0, l1)     = ofOwner(0).take(2)
    val Seq(h0, h1, h2) = ofOwner(1).take(3)
    val Seq(m0, m1)     = ofOwner(1).slice(3, 5)
    val Seq(m2, m3)     = ofOwner(2).take(2)
    val fresh           = ofOwner(1).drop(5) ++ ofOwner(2).drop(2)
    val metrics = new Metrics(3, NetworkModel())
    val cache   = NbrCache(CacheKind.Lrbu, 7)
    val adj     = new Adjacency(0, pg, cache, externalStore = false, metrics)
    adj.fetch(Array(Array(h0), Array(h1), Array(h2)), Array(0))
    adj.release()
    val (hits0, misses0, rpcs0, bytes0) =
      (metrics.cacheHits.get, metrics.cacheMisses.get, metrics.rpcs.get, metrics.bytesPulled.get)
    val batch = Array(
      Array(h0, m0), Array(h0, m1), Array(m2, m1), Array(m2, l0), Array(h1, l0),
      Array(m3, h2), Array(m3, h2), Array(l1, m0), Array(h0, h1))
    adj.fetch(batch, Array(0, 1))
    for (row <- batch; v <- row) assert(adj.read(v).length == n - 1, s"N($v)")
    assert(metrics.cacheHits.get - hits0 == 3)
    assert(metrics.cacheMisses.get - misses0 == 4)
    assert(metrics.rpcs.get - rpcs0 == 2, "one bulk RPC per owner of the misses")
    assert(metrics.bytesPulled.get - bytes0 == 4L * (4 + 4 * (n - 1)))
    assert(cache.size == 7)
    adj.release()
    // Seal order: the hits, then the misses, each in the set's table order.
    val set = new Kernels.IntSet(batch.length)
    Seq(h0, m0, m1, m2, h1, m3, h2).foreach(set.add)
    val tableOrder = scala.collection.mutable.ArrayBuffer[Int]()
    set.foreach(tableOrder += _)
    val (hitOrder, missOrder) = tableOrder.partition(Set(h0, h1, h2))
    val evicted = fresh.take(7).map { v =>
      val before = tableOrder.filter(cache.contains)
      cache.insert(v, pg.serveNbrs(v))
      before.filterNot(cache.contains)
    }
    assert(evicted == (hitOrder ++ missOrder).map(Seq(_)))
  }

  test("a two-stage read of a vertex the fetch stage missed throws, naming the vertex") {
    val pg  = new PartitionedGraph(DataGraph.complete(8), 2)
    val v   = (0 until 8).find(pg.owner(_) == 1).get
    val adj = new Adjacency(0, pg, NbrCache(CacheKind.Lrbu, 4), externalStore = false,
                            new Metrics(2, NetworkModel()))
    assert(intercept[IllegalStateException](adj.read(v)).getMessage.contains(s"N($v)"))
  }

  // 64 rows of weight 100 in chunks of weight 800: eight chunks. Each worker
  // waits at its first row until the other has started one, so a single
  // worker cannot take every chunk.
  test("WorkerPool runs a heavy range's weighted chunks on several workers, as one worker would") {
    val rows = (0 until 64).map(i => Array(i))
    def runOn(workers: Int): (Seq[Seq[Int]], Set[String]) = {
      val pool    = new WorkerPool(0, workers, new Metrics(1, NetworkModel()))
      val started = new java.util.concurrent.CountDownLatch(workers)
      val threads = java.util.concurrent.ConcurrentHashMap.newKeySet[String]()
      try {
        val out = pool.runWeighted(rows, _ => 100L, 800L, () => false) { (row, out) =>
          if (threads.add(Thread.currentThread().getName)) {
            started.countDown()
            started.await(10, java.util.concurrent.TimeUnit.SECONDS)
          }
          out += Array(row(0), 2 * row(0))
        }
        (out.map(_.toSeq).toSeq.sortBy(_.head), threads.toArray(Array.empty[String]).toSet)
      } finally pool.shutdown()
    }
    val (par, threads) = runOn(2)
    assert(threads.size == 2 && threads.forall(_.startsWith("m0-worker-")), threads)
    assert(par == runOn(1)._1 && par.length == 64)
  }

  // The same eight chunks, each row doubled into two output rows, handed to
  // a sink: each worker's output reaches it once, on that worker's thread.
  test("WorkerPool's sink takes every worker's output exactly once, on the worker that made it") {
    val rows    = (0 until 64).map(i => Array(i))
    val pool    = new WorkerPool(0, 2, new Metrics(1, NetworkModel()))
    val started = new java.util.concurrent.CountDownLatch(2)
    val workers = java.util.concurrent.ConcurrentHashMap.newKeySet[String]()
    val sunk    = scala.collection.mutable.ArrayBuffer[(String, Seq[Int])]()
    try {
      val left = pool.runWeighted(rows, _ => 100L, 800L, () => false, out => sunk.synchronized {
        sunk ++= out.map(r => Thread.currentThread().getName -> r.toSeq)
      }) { (row, out) =>
        if (workers.add(Thread.currentThread().getName)) {
          started.countDown()
          started.await(10, java.util.concurrent.TimeUnit.SECONDS)
        }
        out += Array(row(0), 0)
        out += Array(row(0), 1)
      }
      assert(left.isEmpty, "a sink takes every row")
      assert(sunk.map(_._2).sortBy(r => (r(0), r(1))) == (0 until 64).flatMap(i => Seq(Seq(i, 0), Seq(i, 1))))
      assert(sunk.map(_._1).toSet == workers.toArray(Array.empty[String]).toSet && workers.size == 2, sunk.map(_._1).toSet)
      // Both rows of an input row were made, and so sunk, by one worker.
      assert(sunk.groupBy(_._2.head).values.forall(_.map(_._1).distinct.size == 1))
    } finally pool.shutdown()
  }

  test("WorkerPool's single-chunk inline run sinks on the calling thread") {
    for (workers <- Seq(1, 2)) {
      val pool = new WorkerPool(0, workers, new Metrics(1, NetworkModel()))
      val rows = (0 until 10).map(i => Array(i))
      val sunk = scala.collection.mutable.ArrayBuffer[(String, Seq[Seq[Int]])]()
      try {
        val left = pool.run(rows, 100, () => false, out => sunk += Thread.currentThread().getName -> out.map(_.toSeq).toSeq) {
          (row, out) => out += row
        }
        assert(left.isEmpty)
        assert(sunk.toSeq == Seq(Thread.currentThread().getName -> rows.map(_.toSeq)), s"$workers workers")
      } finally pool.shutdown()
    }
  }

  // --- pinned accounting ----------------------------------------------------
  // Exact counters of single-worker runs without inter-machine stealing, so
  // the fetch, pull, push and store accounting cannot drift unnoticed.
  val pinned: EngineConfig = base().copy(workersPerMachine = 1, interStealing = false)

  def counters(m: Metrics): Map[String, Long] = Map(
    "results" -> m.results.get, "rpcs" -> m.rpcs.get, "bytesPulled" -> m.bytesPulled.get,
    "bytesPushed" -> m.bytesPushed.get, "hits" -> m.cacheHits.get,
    "misses" -> m.cacheMisses.get, "kv" -> m.kvAccesses.get)

  for (kind <- Seq(CacheKind.Lrbu, CacheKind.LruInf))
    test(s"pinned counters: q3, $kind (two-stage fetch, one RPC per owner per batch)") {
      assert(counters(hugeRun(Queries.q3, TestGraphs.pl, pinned.copy(cacheKind = kind))) == Map(
        "results" -> 23L, "rpcs" -> 25L, "bytesPulled" -> 13564L, "bytesPushed" -> 0L,
        "hits" -> 369L, "misses" -> 291L, "kv" -> 0L))
    }

  test("pinned counters: q3, cncr-lru (per-access pulls)") {
    assert(counters(hugeRun(Queries.q3, TestGraphs.pl, pinned.copy(cacheKind = CacheKind.CncrLru))) == Map(
      "results" -> 23L, "rpcs" -> 291L, "bytesPulled" -> 13564L, "bytesPushed" -> 0L,
      "hits" -> 1596L, "misses" -> 291L, "kv" -> 0L))
  }

  test("pinned counters: q1, BiGJoin plan (pushing extends)") {
    assert(counters(hugeRun(Queries.q1, TestGraphs.pl, pinned, LogicalPlans.bigJoin)) == Map(
      "results" -> 2855L, "rpcs" -> 0L, "bytesPulled" -> 0L, "bytesPushed" -> 54816L,
      "hits" -> 0L, "misses" -> 0L, "kv" -> 0L))
  }

  test("pinned counters: q1, BENU plan (external store, cncr-lru)") {
    val cfg = pinned.copy(externalStore = true, cacheKind = CacheKind.CncrLru,
                          cacheCapacityEntries = 64, queueCapacityRows = 1)
    assert(counters(hugeRun(Queries.q1, TestGraphs.pl, cfg, LogicalPlans.benu)) == Map(
      "results" -> 2855L, "rpcs" -> 0L, "bytesPulled" -> 222188L, "bytesPushed" -> 0L,
      "hits" -> 7874L, "misses" -> 5798L, "kv" -> 5798L))
  }

  // PUSH-JOIN plans with a 64-row spill threshold: the route, push, spill
  // and merge accounting.
  for ((name, q, plan, want) <- Seq[(String, QueryGraph, QueryGraph => PlanNode, Seq[Long])](
         ("HUGE q8 (1 join)", Queries.q8, null, Seq(250293L, 1011840L, 1508352L, 37048L, 232L)),
         ("SEED q8 (3 joins)", Queries.q8, LogicalPlans.seed(_, cost, 3), Seq(250293L, 1314196L, 1972224L, 0L, 0L)),
         ("SEED q1 (1 join)", Queries.q1, LogicalPlans.seed(_, cost, 3), Seq(2855L, 120384L, 177408L, 0L, 0L))))
    test(s"pinned counters: $name, spill threshold 64") {
      val m = hugeRun(q, TestGraphs.pl, pinned.copy(spillThresholdRows = 64), plan)
      assert(Seq(m.results.get, m.bytesPushed.get, m.spilledBytes.get, m.bytesPulled.get, m.rpcs.get) == want,
        "results, bytesPushed, spilledBytes, bytesPulled, rpcs")
    }

  // --- termination under stealing --------------------------------------------
  // DFS queues, tiny batches and chunks, and inter-machine stealing on: many
  // steals per run, so a termination race shows as a wrong count or a hang.
  for ((qn, q) <- Seq("q1" -> Queries.q1, "q2" -> Queries.q2))
    test(s"stealing-heavy runs terminate with the exact count: $qn x 30") {
      val cfg  = EngineConfig(machines = 4, workersPerMachine = 2, batchSize = 8, chunkSize = 4,
                              queueCapacityRows = 1, cacheCapacityEntries = 128, interStealing = true)
      val want = expected(q, TestGraphs.pl)
      val runs = Future((1 to 30).map(_ => hugeRun(q, TestGraphs.pl, cfg)))(ExecutionContext.global)
      val ms   = Await.result(runs, 60.seconds)
      assert(ms.map(_.results.get).forall(_ == want), ms.map(_.results.get))
      assert(ms.map(_.stealsInter.get).sum > 0, "the runs must steal between machines")
    }

  // --- time limit -----------------------------------------------------------
  test("time-limited run terminates early with partial results") {
    val cfg = base().copy(timeLimitSec = 0.0)
    val m   = hugeRun(Queries.q6, TestGraphs.pl, cfg)
    assert(m.results.get <= expected(Queries.q6, TestGraphs.pl))
    assert(m.timedOut, "a partial count must be marked")
  }

  // --- failures -------------------------------------------------------------
  test("a worker exception reaches the caller of WorkerPool.run") {
    val pool = new WorkerPool(0, 2, new Metrics(1, NetworkModel()))
    val rows = (0 until 1024).map(i => Array(i))
    try {
      val e = intercept[IllegalStateException] {
        pool.run(rows, 16) { (row, out) =>
          if (row(0) == 700) throw new IllegalStateException("boom")
          out += row
        }
      }
      assert(e.getMessage == "boom")
    } finally pool.shutdown()
  }

  test("an exception in WorkerPool's sink reaches the caller like one in process") {
    val pool = new WorkerPool(0, 2, new Metrics(1, NetworkModel()))
    try {
      for (n <- Seq(1024, 8)) { // many chunks on the workers, or one inline
        val rows = (0 until n).map(i => Array(i))
        val e = intercept[IllegalStateException] {
          pool.run(rows, 16, () => false, _ => throw new IllegalStateException("sink")) { (row, out) => out += row }
        }
        assert(e.getMessage == "sink", s"$n rows")
      }
    } finally pool.shutdown()
  }

  // Vertex 1's adjacency names vertex 99, outside the graph: extending the
  // scanned edge (1, 99) reads N(99) and throws on that edge's machine. The
  // bounded wait turns a hang of the peer machines into a failure.
  for (k <- 1 to 3)
    test(s"a machine-thread failure is thrown by Engine.run, not returned as a count (k=$k)") {
      val g   = new DataGraph(Array(Array(1), Array(0, 99)))
      val q   = Queries.triangle
      val op  = Dataflow.fromPlan(LogicalPlans.bigJoin(q), q, q.symmetryConditions)
      val run = Future(Engine.run(op, new PartitionedGraph(g, k), base(k)))(ExecutionContext.global)
      val outcome = Await.ready(run, 60.seconds).value.get
      assert(outcome.failed.toOption.exists(_.isInstanceOf[IndexOutOfBoundsException]), outcome)
    }

  // The left side of this join spills one run per row; its right side then
  // reads N(99) and throws. The failed run must still delete the runs.
  for (k <- 1 to 3)
    test(s"a failed run leaves no spill runs behind (k=$k)") {
      val g  = new DataGraph(Array(Array(1), Array(0, 99)))
      val op = PushJoin(ScanEdge(0, 1, Vector()),
                        PullExtend(ScanEdge(1, 2, Vector()), Vector(2), 3, verify = false, Vector()), Vector())
      val tmp = new java.io.File(System.getProperty("java.io.tmpdir"))
      def runFiles = tmp.list().filter(n => n.startsWith("huge-join-") && n.endsWith(".run")).toSet
      val before  = runFiles
      val cfg     = base(k).copy(batchSize = 1, spillThresholdRows = 1)
      val run     = Future(Engine.run(op, new PartitionedGraph(g, k), cfg))(ExecutionContext.global)
      val outcome = Await.ready(run, 60.seconds).value.get
      assert(outcome.failed.toOption.exists(_.isInstanceOf[IndexOutOfBoundsException]), outcome)
      assert((runFiles -- before).isEmpty, "spill runs left in java.io.tmpdir")
    }

  // --- metrics model --------------------------------------------------------
  test("metrics: T = T_R + T_C and summary formats") {
    val m = hugeRun(Queries.q1, TestGraphs.pl, base())
    assert(math.abs(m.totalTimeSec - (m.computeTimeSec + m.commTimeSec)) < 1e-9)
    assert(m.summary.contains("T="))
    assert(m.peakMemoryBytes > 0)
    assert(!m.timedOut)
  }
}
