package repro.core

import repro.graph.QueryGraph

/** The operator tree both engines execute (§4.2).
  *
  * This is Algorithm 2's translation of an execution plan into a dataflow of
  * SCAN / PULL-EXTEND / PUSH-JOIN (SINK is the engine's result consumer),
  * including the §5.2 rewrites: SCAN(star) becomes SCAN(edge) followed by
  * PULL-EXTEND operators, and a pulling-based hash join becomes a chain of
  * PULL-EXTEND operators (a verification extend over the already-matched
  * leaves, then one extend per remaining leaf).
  *
  * Every operator carries:
  *  - `matched`: the query vertices bound after the operator, in column order
  *    (each engine represents a partial result as a row in this order);
  *  - `conds`: the symmetry-breaking conditions (a < b) this operator must
  *    enforce (assigned to the first operator where both ends are bound);
  *  - `distinctPairs`: the injectivity pairs (a, b) whose data vertices must
  *    differ, each at the first operator that can check it.
  */
sealed trait Op {
  def matched: Vector[Int]
  def conds: Vector[(Int, Int)]
  def distinctPairs: Vector[(Int, Int)]
  /** Query edges guaranteed matched after this operator. */
  def covered: Set[(Int, Int)]
  def col(v: Int): Int = {
    val i = matched.indexOf(v)
    require(i >= 0, s"query vertex $v not matched in $matched")
    i
  }
  /** Operators in execution order (post-order; left subtree first). */
  def sequence: Vector[Op] = this match {
    case s: ScanEdge   => Vector(s)
    case e: PullExtend => e.input.sequence :+ e
    case j: PushJoin   => j.left.sequence ++ j.right.sequence :+ j
  }
}

/** SCAN of a single query edge (a, b): emits every directed data edge as a
  * two-column partial result [a-match, b-match].
  */
final case class ScanEdge(a: Int, b: Int, conds: Vector[(Int, Int)]) extends Op {
  val matched: Vector[Int]      = Vector(a, b)
  val covered: Set[(Int, Int)]  = Set((a min b, a max b))
  val distinctPairs: Vector[(Int, Int)] = Vector.empty // a data edge never loops
}

/** PULL-EXTEND (Algorithm 4): for each input row, intersect the neighbour
  * lists of the matched vertices in `ext`.
  *
  *  - `verify = false`: bind `target` (a new query vertex) to each vertex of
  *    the intersection that is distinct from all bound vertices.
  *  - `verify = true`: `target` is already bound — keep the row iff its
  *    binding lies in the intersection (the §5.2 hint that "preserves f where
  *    f(v'_r) = u_{i+1}").
  *
  * `comm` is the communication mode of the plan join the extend came from:
  * `Pulling` fetches remote neighbour lists to the row's machine, `Pushing`
  * (BiGJoin's wco join) sends the row to each pivot's owner instead.
  */
final case class PullExtend(input: Op, ext: Vector[Int], target: Int,
                            verify: Boolean, conds: Vector[(Int, Int)],
                            comm: CommMode = CommMode.Pulling) extends Op {
  require(ext.nonEmpty && ext.forall(input.matched.contains),
    s"extend pivots $ext must be matched in ${input.matched}")
  require(verify == input.matched.contains(target),
    s"verify=$verify inconsistent with target $target vs ${input.matched}")

  val matched: Vector[Int] = if (verify) input.matched else input.matched :+ target
  val covered: Set[(Int, Int)] =
    input.covered ++ ext.map(p => (p min target, p max target))
  val distinctPairs: Vector[(Int, Int)] =
    if (verify) Vector.empty else input.matched.map(_ -> target)
}

/** PUSH-JOIN (§4.3): hash join of two sub-dataflows on their shared matched
  * vertices; non-shared vertices must stay pairwise distinct (injectivity).
  */
final case class PushJoin(left: Op, right: Op, conds: Vector[(Int, Int)]) extends Op {
  val key: Vector[Int] = left.matched.filter(right.matched.contains)
  require(key.nonEmpty, "push join needs a non-empty key")

  val matched: Vector[Int]     = left.matched ++ right.matched.filterNot(left.matched.contains)
  val covered: Set[(Int, Int)] = left.covered ++ right.covered
  /** Each side is injective already: only left-only × right-only is new. */
  val distinctPairs: Vector[(Int, Int)] =
    for (a <- left.matched.diff(key); b <- right.matched.diff(left.matched)) yield (a, b)
}

object Dataflow {

  /** Algorithm 2 + §5.2: translate an execution plan into the operator tree,
    * assigning each symmetry condition to the earliest operator that can
    * enforce it.
    */
  def fromPlan(plan: PlanNode, q: QueryGraph,
               conditions: Seq[(Int, Int)]): Op = {
    val remaining = collection.mutable.Set[(Int, Int)](conditions: _*)
    def take(matched: Set[Int]): Vector[(Int, Int)] = {
      val ready = remaining.filter { case (x, y) => matched(x) && matched(y) }.toVector
      remaining --= ready
      ready
    }

    def compileUnit(u: SubQuery): Op = {
      val root   = u.starRoots.min
      val leaves = u.starLeaves(root).toVector.sorted
      var op: Op = ScanEdge(root, leaves.head, take(Set(root, leaves.head)))
      for (l <- leaves.tail)
        op = PullExtend(op, Vector(root), l, verify = false, take(op.matched.toSet + l))
      op
    }

    /** Chain of pull extends implementing a pulled star join of `unit` onto
      * `op` (§5.2): verification over leaves already matched, then one extend
      * per new leaf; handles the complete-star-join (wco) case where the root
      * itself is the new vertex.
      */
    def pullStar(op0: Op, unit: SubQuery, root: Int, comm: CommMode): Op = {
      var op      = op0
      val leaves  = unit.starLeaves(root)
      val matched = op.matched.toSet
      val v1      = (leaves & matched).toVector.sorted
      val v2      = (leaves -- matched).toVector.sorted
      require(matched.contains(root) || v1.nonEmpty,
        s"pulled star root $root unreachable from matched set $matched (Equation 3 violated)")
      if (v1.nonEmpty) {
        val verify = matched.contains(root)
        op = PullExtend(op, v1, root, verify, take(op.matched.toSet + root), comm)
      }
      for (v <- v2)
        op = PullExtend(op, Vector(root), v, verify = false, take(op.matched.toSet + v), comm)
      op
    }

    def compile(p: PlanNode): Op = p match {
      case UnitScan(u) => compileUnit(u)
      case JoinNode(_, l, r, setting) =>
        (setting.algo, setting.comm) match {
          case (JoinAlgo.Wco, _) | (JoinAlgo.Hash, CommMode.Pulling) =>
            // Star joins become PULL-EXTEND chains: a wco join is the
            // intersection extension regardless of its communication mode
            // (a *pushing* wco join — BiGJoin — moves the partial results
            // instead of adjacency; its extends carry `Pushing`). A pulling
            // hash join is the §5.2 chain of verification + extension
            // operators. Equation 3 designates the right side as the star.
            val unit = r.sub
            require(unit.isStar, s"star join requires a star right side: ${unit.edges}")
            val root =
              if (unit.starRoots.contains(setting.starRoot)) setting.starRoot
              else unit.starRoots.min
            pullStar(compile(l), unit, root, setting.comm)
          case (JoinAlgo.Hash, CommMode.Pushing) =>
            val lo = compile(l); val ro = compile(r)
            PushJoin(lo, ro, take(lo.matched.toSet ++ ro.matched.toSet))
        }
    }

    val op = compile(plan)
    require(remaining.isEmpty, s"unassigned symmetry conditions: $remaining")
    require(op.covered == q.edges.toSet,
      s"dataflow covers ${op.covered}, query has ${q.edges.toSet}")
    require(op.matched.toSet == q.touchedVertices, "dataflow must bind every query vertex")
    op
  }
}
