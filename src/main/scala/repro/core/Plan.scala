package repro.core

import repro.graph.QueryGraph

/** Join algorithm of a two-way join (§3.2). */
sealed trait JoinAlgo
object JoinAlgo {
  case object Hash extends JoinAlgo
  case object Wco  extends JoinAlgo
}

/** Communication mode of a two-way join (§3.2). */
sealed trait CommMode
object CommMode {
  case object Pushing extends CommMode
  case object Pulling extends CommMode
}

/** A sub-query: an edge subset of the full query graph q (vertex ids are
  * q's vertex ids). Equation 1 decomposes q into edge-disjoint join units
  * whose union covers E_q, so plan nodes are edge subsets, not induced
  * subgraphs.
  */
final case class SubQuery(q: QueryGraph, edges: Set[(Int, Int)]) {
  require(edges.subsetOf(q.edges.toSet), s"not a subset of the query: $edges")

  lazy val vertices: Set[Int] = edges.flatMap { case (a, b) => Set(a, b) }

  def numVertices: Int = vertices.size

  def isConnected: Boolean = q.edgesConnected(edges.toSeq)

  /** Roots under which this edge set is a star (all edges share the root).
    * A single edge has two roots; larger stars exactly one.
    */
  lazy val starRoots: Set[Int] =
    vertices.filter(r => edges.forall { case (a, b) => a == r || b == r })

  def isStar: Boolean = starRoots.nonEmpty

  /** Leaves of the star when rooted at `root`. */
  def starLeaves(root: Int): Set[Int] = {
    require(starRoots.contains(root), s"$root is not a star root of $edges")
    vertices - root
  }

  def union(other: SubQuery): SubQuery = SubQuery(q, edges ++ other.edges)
}

/** Physical setting of one two-way join: algorithm + communication mode,
  * plus (for star right-hand sides) the star root the setting was derived
  * for. `starRoot` is -1 for pushing hash joins of non-stars.
  */
final case class PhysicalSetting(algo: JoinAlgo, comm: CommMode, starRoot: Int)

object PhysicalSetting {
  import JoinAlgo._, CommMode._

  /** Equation 3: configure a join (q', l, r) where `r` is the designated
    * right side. Returns the best applicable setting:
    *   - complete star join (r a star with all leaves in V_l)  -> (wco, pulling)
    *   - r a star whose root is already matched in V_l         -> (hash, pulling)
    *   - otherwise                                             -> (hash, pushing)
    */
  def configure(l: SubQuery, r: SubQuery): PhysicalSetting = {
    val lv = l.vertices
    // Prefer a root making the join a *complete* star join (C2), then C1.
    val completeRoot = r.starRoots.find(root => r.starLeaves(root).subsetOf(lv))
    completeRoot match {
      case Some(root) => PhysicalSetting(Wco, Pulling, root)
      case None =>
        r.starRoots.find(lv.contains) match {
          case Some(root) => PhysicalSetting(Hash, Pulling, root)
          case None       => PhysicalSetting(Hash, Pushing, -1)
        }
    }
  }
}

/** An execution plan node. Logical aspect = the tree shape (join order) and
  * the units at the leaves; physical aspect = each join's PhysicalSetting.
  */
sealed trait PlanNode {
  def sub: SubQuery
  /** All join units (leaves) of the plan. */
  def units: Vector[SubQuery] = this match {
    case UnitScan(u)              => Vector(u)
    case JoinNode(_, l, r, _)     => l.units ++ r.units
  }
  /** All joins in post-order (the join order O; last element produces q). */
  def joins: Vector[JoinNode] = this match {
    case UnitScan(_)              => Vector.empty
    case j @ JoinNode(_, l, r, _) => l.joins ++ r.joins :+ j
  }
  /** Left-deep: every right child is a unit. */
  def isLeftDeep: Boolean = joins.forall(_.right.isInstanceOf[UnitScan])
}

/** Leaf: scan the matches of a join unit (a star in HUGE). */
final case class UnitScan(sub: SubQuery) extends PlanNode {
  require(sub.isStar, s"join unit must be a star: ${sub.edges}")
}

/** Internal node: a two-way join with its physical setting. */
final case class JoinNode(sub: SubQuery, left: PlanNode, right: PlanNode,
                          setting: PhysicalSetting) extends PlanNode {
  require(sub.edges == (left.sub.edges ++ right.sub.edges), "join must union its children")
  require((left.sub.edges & right.sub.edges).isEmpty, "children must be edge-disjoint")
  require((left.sub.vertices & right.sub.vertices).nonEmpty, "children must share a join key")
}

object PlanNode {
  /** Validate a plan for query q: connected nodes, full edge coverage. */
  def validate(plan: PlanNode, q: QueryGraph): Unit = {
    require(plan.sub.edges == q.edges.toSet, "plan must cover every query edge")
    def rec(p: PlanNode): Unit = p match {
      case UnitScan(u) => require(u.isConnected, "unit must be connected")
      case JoinNode(s, l, r, _) =>
        require(s.isConnected, "every sub-query must be connected")
        rec(l); rec(r)
    }
    rec(plan)
  }
}
