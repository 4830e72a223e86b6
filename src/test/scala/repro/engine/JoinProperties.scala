package repro.engine

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.propBoolean
import repro.core._

/** The PUSH-JOIN's route, key parts and memory accounting ([[JoinSpec]])
  * over random rows, keys and configurations: 1–4 machines, 1–4 workers
  * (so 1–4 key parts per machine) and spill thresholds from 1 row to
  * unbounded, with the rows routed in random chunks from random machines.
  */
object JoinProperties extends Properties("Join") {

  /** A one-column key (a 2-path of two edges), and a two-column key at
    * different column positions on the two sides, with a join condition.
    */
  val joins: Vector[PushJoin] = Vector(
    PushJoin(ScanEdge(0, 1, Vector()), ScanEdge(1, 2, Vector()), Vector()),
    PushJoin(PullExtend(ScanEdge(0, 1, Vector()), Vector(1), 2, verify = false, Vector()),
             PullExtend(ScanEdge(2, 0, Vector()), Vector(0), 3, verify = false, Vector()),
             Vector((1, 3))))

  final case class Case(join: PushJoin, cfg: EngineConfig,
                        chunks: Vector[(Int, Int, Vector[Array[Int]])]) { // (from, side, rows)
    def sides: Vector[Op] = Vector(join.left, join.right)
    def keyCols(side: Int): Vector[Int] = join.key.map(sides(side).col)
    def key(side: Int, row: Array[Int]): Vector[Int] = keyCols(side).map(row(_))
    def rows(side: Int): Vector[Array[Int]] = chunks.filter(_._2 == side).flatMap(_._3)
    override def toString: String =
      s"machines=${cfg.machines} parts=${cfg.workersPerMachine} threshold=${cfg.spillThresholdRows} " +
        s"key=${join.key} chunks=${chunks.map(c => (c._1, c._2, c._3.length))}"
  }

  val genCase: Gen[Case] = for {
    join      <- Gen.oneOf(joins)
    machines  <- Gen.choose(1, 4)
    workers   <- Gen.choose(1, 4)
    threshold <- Gen.frequency(4 -> Gen.choose(1, 300), 1 -> Gen.const(Int.MaxValue))
    ids       <- Gen.choose(2, 40) // few ids: keys repeat, and rows meet on them
    nChunks   <- Gen.choose(0, 12)
    seed      <- Gen.choose(0L, 1000000L)
  } yield {
    val rng    = new scala.util.Random(seed)
    val chunks = Vector.fill(nChunks) {
      val side  = rng.nextInt(2)
      val width = (if (side == 0) join.left else join.right).matched.length
      (rng.nextInt(machines), side, Vector.fill(rng.nextInt(80))(Array.fill(width)(rng.nextInt(ids))))
    }
    Case(join, EngineConfig(machines = machines, workersPerMachine = workers, spillThresholdRows = threshold), chunks)
  }

  /** The join's machine for a row, as a per-row route computes it. */
  def machineOf(c: Case, side: Int, row: Array[Int]): Int = {
    var h = 17
    for (v <- c.key(side, row)) h = h * 31 + v * 0x9E3779B9
    (h >>> 8) % c.cfg.machines
  }

  def routed(c: Case): (JoinSpec, Metrics) = {
    val metrics = new Metrics(c.cfg.machines)
    val spec    = new JoinSpec(c.join, c.cfg, metrics)
    for ((from, side, rows) <- c.chunks) spec.route(from, side, rows)
    (spec, metrics)
  }

  def multiset(rows: Iterable[Array[Int]]): Map[Seq[Int], Int] =
    rows.groupBy(_.toSeq).map { case (r, rs) => r -> rs.size }

  property("route: each row reaches its key's machine in one part, charged as the per-row route") =
    Prop.forAll(genCase) { c =>
      val (spec, metrics) = routed(c)
      val parts = c.cfg.workersPerMachine
      val width = Vector(c.join.left.matched.length, c.join.right.matched.length)
      val threshold = math.max(1, c.cfg.spillThresholdRows / parts)
      // Held bytes are read before the buffers are: a part keeps the rows
      // past its last full spill.
      val held = (0 until c.cfg.machines).map(metrics.heldBytes)
      val placed = for (m <- 0 until c.cfg.machines; j <- 0 until 2 * parts)
        yield (m, j / 2, j % 2, spec.buffers(m)(j).sortedIterator().toVector)
      val wantPushed = c.chunks.map { case (from, side, rows) =>
        rows.count(machineOf(c, side, _) != from) * 4L * width(side)
      }.sum
      val wantHeld = (0 until c.cfg.machines).map { m =>
        placed.filter(_._1 == m).map { case (_, _, side, rows) => 4L * width(side) * (rows.length % threshold) }.sum
      }
      val partsOfKey = placed.flatMap { case (m, p, side, rows) => rows.map(r => c.key(side, r) -> (m, p)) }
        .groupBy(_._1).map { case (k, ps) => k -> ps.map(_._2).distinct }
      spec.clear()
      val cleared = (0 until c.cfg.machines).map(metrics.heldBytes)
      ((0 to 1).forall(s => multiset(placed.filter(_._3 == s).flatMap(_._4)) == multiset(c.rows(s)))
        :| "every row is buffered once, on its side") &&
        placed.forall { case (m, _, side, rows) => rows.forall(machineOf(c, side, _) == m) } :| "machine" &&
        (metrics.bytesPushed.get == wantPushed) :| s"bytesPushed ${metrics.bytesPushed.get} != $wantPushed" &&
        partsOfKey.values.forall(_.size == 1) :| "a key is split over buckets" &&
        (held == wantHeld) :| s"held bytes $held != $wantHeld" &&
        cleared.forall(_ == 0) :| s"held bytes after clear $cleared" &&
        (metrics.spilledBytes.get == placed.map { case (_, _, side, rows) =>
          4L * width(side) * (rows.length / threshold * threshold)
        }.sum) :| "spilled bytes"
    }

  property("resultIterator equals a nested-loop join as a multiset") =
    Prop.forAll(genCase) { c =>
      val (spec, _) = routed(c)
      val got  = try (0 until c.cfg.machines).flatMap(spec.resultIterator(_).toVector) finally spec.clear()
      val pair = new Kernels.PairJoin(c.join)
      val want = for (l <- c.rows(0); r <- c.rows(1) if c.key(0, l) == c.key(1, r); row <- Option(pair.tryJoin(l, r)))
        yield row
      (multiset(got) == multiset(want)) :| s"${got.length} rows, want ${want.length}"
    }
}
