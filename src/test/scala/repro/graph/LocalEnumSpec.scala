package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class LocalEnumSpec extends AnyFunSuite {

  /** Falling factorial n (n-1) ... (n-k+1). */
  private def fall(n: Int, k: Int): Long = (0 until k).map(i => (n - i).toLong).product

  test("matching order is connected and starts at max degree") {
    for ((_, q) <- Queries.all) {
      val ord = LocalEnum.matchingOrder(q)
      assert(ord.sorted == (0 until q.n).toVector)
      assert(q.degree(ord.head) == (0 until q.n).map(q.degree).max)
      for (i <- 1 until ord.length)
        assert(q.adj(ord(i)).exists(ord.take(i).contains(_)), s"$q order $ord disconnects")
    }
  }

  // Closed forms on the complete graph K_n: every injective mapping matches.
  val cliqueCases: Seq[(String, QueryGraph)] = Seq(
    "triangle" -> Queries.triangle, "square" -> Queries.q1,
    "4-clique" -> Queries.q3, "5-path" -> Queries.q7, "5-cycle" -> Queries.q8)
  for ((name, q) <- cliqueCases)
    test(s"matches of $name in K6 equal the falling factorial") {
      assert(LocalEnum.countMatches(q, TestGraphs.k6) == fall(6, q.n))
    }

  test("subgraph counts in K6 equal binomial-based closed forms") {
    // #triangles = C(6,3) = 20; #4-cliques = C(6,4) = 15;
    // #squares = C(6,4) * 3 = 45 (3 distinct 4-cycles per vertex set).
    assert(LocalEnum.countSubgraphs(Queries.triangle, TestGraphs.k6) == 20)
    assert(LocalEnum.countSubgraphs(Queries.q3, TestGraphs.k6) == 15)
    assert(LocalEnum.countSubgraphs(Queries.q1, TestGraphs.k6) == 45)
  }

  test("cycle data graph: only the cycle itself matches") {
    // C8 contains no triangles/squares; an 8-cycle contains 8*2 matches of
    // the 5-path (choose start, direction) = 16... actually any of 8
    // positions × 2 directions.
    assert(LocalEnum.countMatches(Queries.triangle, TestGraphs.c8) == 0)
    assert(LocalEnum.countMatches(Queries.q1, TestGraphs.c8) == 0)
    assert(LocalEnum.countMatches(Queries.q7, TestGraphs.c8) == 16)
    assert(LocalEnum.countSubgraphs(Queries.q7, TestGraphs.c8) == 8)
  }

  test("star counts on a known star graph") {
    // Data graph: star with centre 0 and 5 leaves. #wedges rooted anywhere:
    // matches of 2-star = 5*4 = 20 at centre; leaves have degree 1.
    val star = DataGraph.fromEdges(6, (1 to 5).map(l => (0, l)))
    val wedge = QueryGraph.path(3) // v0 - v1 - v2, centre v1
    assert(LocalEnum.countMatches(wedge, star) == 20)
    assert(LocalEnum.countSubgraphs(wedge, star) == 10)
  }

  test("foreachMatch yields injective, edge-preserving assignments") {
    val q = Queries.q4 // diamond
    val g = TestGraphs.pl
    var n = 0
    LocalEnum.foreachMatch(q, g) { a =>
      n += 1
      assert(a.toSet.size == q.n)
      for ((x, y) <- q.edges) assert(g.hasEdge(a(x), a(y)))
    }
    assert(n == LocalEnum.countMatches(q, g))
  }

  test("conditions prune exactly (square has v-degree symmetry)") {
    val q = Queries.q1
    val g = TestGraphs.er
    val all = LocalEnum.countMatches(q, g)
    // A single condition (0 < 2) across the diagonal halves the matches.
    val half = LocalEnum.countMatches(q, g, Seq((0, 2)))
    assert(all == 2 * half)
  }

  test("intersection helpers") {
    assert(Intersect.sorted(Array(1, 3, 5, 7), Array(2, 3, 5, 8)).toSeq == Seq(3, 5))
    assert(Intersect.sorted(Array[Int](), Array(1)).isEmpty)
  }
}
