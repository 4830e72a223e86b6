package repro.graph

/** Reference single-machine subgraph enumerator (Ullmann-style backtracking).
  *
  * This is the ground truth every engine is tested against. It enumerates
  * *matches* — injective mappings f: V_q -> V_G preserving all query edges —
  * optionally restricted by symmetry-breaking conditions so that each
  * subgraph is produced exactly once.
  */
object LocalEnum {

  /** A connected matching order starting from the highest-degree vertex. */
  def matchingOrder(q: QueryGraph): Vector[Int] = {
    require(q.isConnected, "query must be connected")
    val order  = Vector.newBuilder[Int]
    val placed = collection.mutable.Set.empty[Int]
    val start  = (0 until q.n).maxBy(q.degree)
    order += start; placed += start
    while (placed.size < q.n) {
      // Next: the unplaced vertex with the most placed neighbours (ties: degree).
      val next = (0 until q.n).filterNot(placed)
        .maxBy(v => (q.adj(v).count(placed), q.degree(v)))
      order += next; placed += next
    }
    order.result()
  }

  /** Count matches; `conditions` are (a, b) pairs demanding f(a) < f(b). */
  def countMatches(q: QueryGraph, g: DataGraph,
                   conditions: Seq[(Int, Int)] = Nil): Long = {
    var c = 0L
    foreachMatch(q, g, conditions)(_ => c += 1)
    c
  }

  /** Count distinct subgraphs (= matches under the query's own symmetry
    * conditions = total matches / |Aut(q)|).
    */
  def countSubgraphs(q: QueryGraph, g: DataGraph): Long =
    countMatches(q, g, q.symmetryConditions)

  /** Enumerate matches, invoking `f` with the assignment array indexed by
    * query-vertex id. The array is reused — copy it if you keep it.
    */
  def foreachMatch(q: QueryGraph, g: DataGraph, conditions: Seq[(Int, Int)] = Nil)
                  (f: Array[Int] => Unit): Unit = {
    val order = matchingOrder(q)
    // For each position i, the query neighbours of order(i) already placed.
    val backNbrs: Array[Array[Int]] = order.indices.map { i =>
      val prev = order.take(i).toSet
      q.adj(order(i)).filter(prev).toArray
    }.toArray
    // Conditions applicable as soon as both endpoints are placed.
    val pos = new Array[Int](q.n); order.zipWithIndex.foreach { case (v, i) => pos(v) = i }
    val condsAt: Array[Array[(Int, Int)]] = order.indices.map { i =>
      conditions.filter { case (a, b) => math.max(pos(a), pos(b)) == i }.toArray
    }.toArray

    val assign = Array.fill(q.n)(-1)

    def candidates(i: Int): Array[Int] = {
      val bn = backNbrs(i)
      if (bn.isEmpty) Array.tabulate(g.numVertices)(identity)
      else {
        var cur = g.neighbours(assign(bn(0)))
        var j   = 1
        while (j < bn.length && cur.nonEmpty) {
          cur = Intersect.sorted(cur, g.neighbours(assign(bn(j))))
          j += 1
        }
        cur
      }
    }

    def rec(i: Int): Unit = {
      if (i == q.n) { f(assign); return }
      val qv = order(i)
      val cs = candidates(i)
      var k  = 0
      while (k < cs.length) {
        val u = cs(k)
        var ok = true
        var j  = 0
        while (ok && j < i) { if (assign(order(j)) == u) ok = false; j += 1 }
        if (ok) {
          assign(qv) = u
          val cds = condsAt(i)
          var c   = 0
          while (ok && c < cds.length) {
            val (a, b) = cds(c)
            if (!(assign(a) < assign(b))) ok = false
            c += 1
          }
          if (ok) rec(i + 1)
          assign(qv) = -1
        }
        k += 1
      }
    }
    rec(0)
  }
}

/** Sorted-array intersection, shared by every engine. Lists hold distinct
  * ids in ascending order; a list may be cut to an index range [from, to),
  * which is how a PULL-EXTEND intersects only the ids its symmetry
  * conditions allow.
  */
object Intersect {
  def sorted(a: Array[Int], b: Array[Int]): Array[Int] = sorted(a, 0, a.length, b, 0, b.length)

  /** The ids of `a(aFrom until aTo)` that are also in `b(bFrom until bTo)`. */
  def sorted(a: Array[Int], aFrom: Int, aTo: Int, b: Array[Int], bFrom: Int, bTo: Int): Array[Int] = {
    val na = aTo - aFrom
    val nb = bTo - bFrom
    // Galloping path for skewed pairs: binary-search each element of the
    // small range in the big one — O(small · log big) instead of
    // O(small + big), which matters when a hub's 20k-neighbour list meets a
    // short one (power-law graphs hit this constantly).
    if (na.toLong * 16 < nb) return gallop(a, aFrom, aTo, b, bFrom, bTo)
    if (nb.toLong * 16 < na) return gallop(b, bFrom, bTo, a, aFrom, aTo)
    val out = new scala.collection.mutable.ArrayBuilder.ofInt
    out.sizeHint(math.min(na, nb))
    var i = aFrom; var j = bFrom
    while (i < aTo && j < bTo) {
      val x = a(i); val y = b(j)
      if (x == y) { out += x; i += 1; j += 1 }
      else if (x < y) i += 1
      else j += 1
    }
    out.result()
  }

  /** Intersect a small sorted range with a big one via binary search. */
  private def gallop(small: Array[Int], sFrom: Int, sTo: Int,
                     big: Array[Int], bFrom: Int, bTo: Int): Array[Int] = {
    val out = new scala.collection.mutable.ArrayBuilder.ofInt
    out.sizeHint(sTo - sFrom)
    var from = bFrom
    var i    = sFrom
    while (i < sTo && from < bTo) {
      val p = java.util.Arrays.binarySearch(big, from, bTo, small(i))
      if (p >= 0) { out += small(i); from = p + 1 }
      else from = -(p + 1)
      i += 1
    }
    out.result()
  }

  /** The index of the first id in sorted `a` that is at least `id`. */
  def lowerBound(a: Array[Int], id: Int): Int = {
    val p = java.util.Arrays.binarySearch(a, id)
    if (p >= 0) p else -(p + 1)
  }
}
