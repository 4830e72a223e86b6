package repro.engine

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.propBoolean
import repro.core.{Op, PullExtend, ScanEdge}
import scala.collection.mutable.ArrayBuffer

/** `Kernels.Extend` intersects only the id range its target conditions
  * allow. It must emit exactly what the unbounded definition emits: the
  * full intersection of the pivots' lists, then injectivity and the
  * conditions, row by row and in order. Its range must hold exactly the
  * ids that meet those conditions.
  */
object KernelsSpec extends Properties("Kernels") {

  /** Ids of the random lists and rows. */
  val maxId = 200

  /** Input rows bind query vertices 0..3; a binding extend binds 4. */
  val input: Op = {
    val s = ScanEdge(0, 1, Vector.empty)
    val e = PullExtend(s, Vector(0), 2, verify = false, Vector.empty)
    PullExtend(e, Vector(0), 3, verify = false, Vector.empty)
  }
  val target = 4

  /** A neighbour list per id: none (null), empty, short, medium or long,
    * so pairs of lists take both the merge and the gallop path.
    */
  val genLists: Gen[Array[Array[Int]]] = {
    val one = Gen.frequency(
      1 -> Gen.const(-1),
      1 -> Gen.const(0),
      3 -> Gen.choose(1, 6),
      3 -> Gen.choose(12, 40),
      2 -> Gen.choose(100, 190)
    ).flatMap(n => if (n < 0) Gen.const(null) else Gen.pick(n, 0 until maxId).map(_.sorted.toArray))
    Gen.listOfN(maxId, one).map(_.toArray)
  }

  val genRows: Gen[List[Array[Int]]] =
    Gen.listOfN(30, Gen.listOfN(input.matched.length, Gen.choose(0, maxId - 1)).map(_.toArray))

  val genPivots: Gen[Vector[Int]] =
    Gen.choose(1, 3).flatMap(Gen.pick(_, input.matched)).map(_.toVector.sorted)

  /** 1–2 conditions "target < c" (upper) or "c < target" (lower). */
  def genBound(upper: Boolean): Gen[Vector[(Int, Int)]] =
    Gen.choose(1, 2).flatMap(Gen.pick(_, input.matched))
      .map(_.toVector.map(c => if (upper) (target, c) else (c, target)))

  def holds(op: PullExtend, r: Seq[Int]): Boolean =
    op.conds.forall { case (a, b) => r(op.col(a)) < r(op.col(b)) }

  /** The unbounded reference: full intersection, then the checks. */
  def reference(op: PullExtend, row: Array[Int], lists: Array[Array[Int]]): Seq[Seq[Int]] = {
    val ls = op.ext.map(v => lists(row(op.input.col(v))))
    if (ls.exists(l => l == null || l.isEmpty)) return Seq.empty
    val cands = ls.map(_.toSet).reduce(_ & _).toSeq.sorted
    if (op.verify) Seq(row.toSeq).filter(r => cands.contains(r(op.input.col(op.target))) && holds(op, r))
    else cands.filterNot(row.contains).map(row.toSeq :+ _).filter(holds(op, _))
  }

  def agrees(op: PullExtend, rows: List[Array[Int]], lists: Array[Array[Int]]): Prop = {
    val ex  = new Kernels.Extend(op)
    val out = new ArrayBuffer[Array[Int]]()
    rows.forall { row =>
      out.clear()
      ex(row, lists(_), out)
      out.map(_.toSeq).toSeq == reference(op, row, lists)
    } :| s"$op"
  }

  /** The injectivity and condition checks after the intersection hide a
    * range that is one id too wide, so the range is checked on its own: an
    * id lies in [lowestId, idLimit) iff the row extended by it meets every
    * condition.
    */
  def exactRange(op: PullExtend, rows: List[Array[Int]]): Prop = {
    val ex = new Kernels.Extend(op)
    rows.forall { row =>
      val (lo, hi) = (ex.lowestId(row), ex.idLimit(row))
      (-1 to maxId).forall(v => (lo <= v && v < hi) == holds(op, row.toSeq :+ v))
    } :| s"$op"
  }

  // Without shrinking: the shrinker cannot take the lists' null entries.
  def binding(genConds: Gen[Vector[(Int, Int)]]): Prop =
    Prop.forAllNoShrink(genLists, genRows, genPivots, genConds) { (lists, rows, pivots, conds) =>
      val op = PullExtend(input, pivots, target, verify = false, conds)
      agrees(op, rows, lists) && exactRange(op, rows)
    }

  property("bounded extend equals reference: upper bounds only") = binding(genBound(upper = true))

  property("bounded extend equals reference: lower bounds only") = binding(genBound(upper = false))

  property("bounded extend equals reference: upper and lower bounds") =
    binding(for { u <- genBound(upper = true); l <- genBound(upper = false) } yield u ++ l)

  property("bounded extend equals reference: empty range") =
    binding(Gen.oneOf(input.matched).map(c => Vector((c, target), (target, c))))

  property("bounded extend equals reference: no conditions") = binding(Gen.const(Vector.empty))

  property("verify extend equals reference") =
    Prop.forAllNoShrink(genLists, genRows, genPivots, Gen.oneOf(false, true)) { (lists, rows, pivots, withCond) =>
      val t     = input.matched.filterNot(pivots.contains).head
      val conds = if (withCond) Vector((pivots.head, t)) else Vector.empty
      agrees(PullExtend(input, pivots, t, verify = true, conds), rows, lists)
    }
}
