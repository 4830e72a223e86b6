package repro.graph

/** An undirected, unlabelled query (pattern) graph.
  *
  * Vertices are `0 until n`; edges are stored canonically as `(min, max)`
  * pairs. Query graphs in this reproduction are tiny (≤ 8 vertices), so all
  * combinatorial routines (connectivity, automorphisms, subgraph
  * enumeration over edge subsets) are brute force by design.
  *
  * @param n     number of query vertices
  * @param edges canonical (a < b) undirected edges
  */
final case class QueryGraph(n: Int, edges: Vector[(Int, Int)]) {
  require(edges.forall { case (a, b) => a >= 0 && b < n && a < b },
    s"edges must be canonical (a < b) within 0..${n - 1}: $edges")
  require(edges.distinct.size == edges.size, s"duplicate edges: $edges")

  /** Adjacency sets over query vertices. */
  lazy val adj: Vector[Set[Int]] = {
    val m = Array.fill(n)(Set.newBuilder[Int])
    for ((a, b) <- edges) { m(a) += b; m(b) += a }
    m.toVector.map(_.result())
  }

  def degree(v: Int): Int = adj(v).size

  def hasEdge(a: Int, b: Int): Boolean = adj(a).contains(b)

  /** Vertices incident to at least one edge (equals 0 until n when connected). */
  lazy val touchedVertices: Set[Int] =
    edges.iterator.flatMap { case (a, b) => Iterator(a, b) }.toSet

  def isConnected: Boolean = {
    if (n == 0) return true
    val seen  = collection.mutable.Set(0)
    val stack = collection.mutable.Stack(0)
    while (stack.nonEmpty) {
      val v = stack.pop()
      for (w <- adj(v) if !seen(w)) { seen += w; stack.push(w) }
    }
    seen.size == n
  }

  /** All automorphisms (vertex permutations preserving edges), brute force. */
  lazy val automorphisms: Vector[Vector[Int]] = {
    val es = edges.toSet
    (0 until n).toVector.permutations.filter { p =>
      es.forall { case (a, b) =>
        val (x, y) = (p(a) min p(b), p(a) max p(b))
        es.contains((x, y))
      }
    }.toVector
  }

  /** Symmetry-breaking partial order (Grochow–Kellis style): a set of
    * `(a, b)` conditions meaning "the data vertex matched to query vertex a
    * must have a smaller ID than the one matched to b". Enforcing them keeps
    * exactly one match per automorphism class, so
    * `#matches(no conditions) == #matches(conditions) * |Aut|`.
    */
  lazy val symmetryConditions: Vector[(Int, Int)] = {
    var auts = automorphisms
    val conds = Vector.newBuilder[(Int, Int)]
    while (auts.size > 1) {
      // Pick the smallest vertex lying in a non-trivial orbit.
      val v = (0 until n).find(v => auts.exists(p => p(v) != v)).get
      val orbit = auts.map(p => p(v)).distinct.filter(_ != v)
      orbit.foreach(u => conds += ((v, u)))
      auts = auts.filter(p => p(v) == v) // stabiliser of v
    }
    conds.result()
  }

  /** Connectivity restricted to the vertices touched by `es`. */
  def edgesConnected(es: Seq[(Int, Int)]): Boolean = {
    if (es.isEmpty) return false
    val vs = es.flatMap { case (a, b) => Seq(a, b) }.toSet
    val a  = collection.mutable.Map.empty[Int, List[Int]].withDefaultValue(Nil)
    for ((x, y) <- es) { a(x) = y :: a(x); a(y) = x :: a(y) }
    val seen  = collection.mutable.Set(es.head._1)
    val stack = collection.mutable.Stack(es.head._1)
    while (stack.nonEmpty) {
      val v = stack.pop()
      for (w <- a(v) if !seen(w)) { seen += w; stack.push(w) }
    }
    seen.size == vs.size
  }
}

object QueryGraph {
  /** Build from any edge list (normalises orientation, drops duplicates). */
  def apply(n: Int, es: Seq[(Int, Int)])(implicit d: DummyImplicit): QueryGraph =
    new QueryGraph(n, es.map { case (a, b) => (a min b, a max b) }.distinct.toVector)

  /** A star with root `root` and the given leaves, embedded in n vertices. */
  def star(n: Int, root: Int, leaves: Seq[Int]): QueryGraph =
    apply(n, leaves.map(l => (root, l)))

  def clique(k: Int): QueryGraph =
    apply(k, for { a <- 0 until k; b <- a + 1 until k } yield (a, b))

  def cycle(k: Int): QueryGraph =
    apply(k, (0 until k).map(i => (i, (i + 1) % k)))

  def path(k: Int): QueryGraph =
    apply(k, (0 until k - 1).map(i => (i, i + 1)))
}
