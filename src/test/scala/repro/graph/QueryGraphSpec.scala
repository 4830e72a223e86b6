package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.core.SubQuery

class QueryGraphSpec extends AnyFunSuite {

  test("canonicalises edges and rejects duplicates") {
    val g = QueryGraph(3, Seq((1, 0), (2, 1), (0, 2)))
    assert(g.edges.toSet == Set((0, 1), (1, 2), (0, 2)))
    intercept[IllegalArgumentException] { new QueryGraph(3, Vector((0, 1), (0, 1))) }
    intercept[IllegalArgumentException] { new QueryGraph(3, Vector((1, 0))) }
  }

  test("adjacency and degrees") {
    val q = Queries.q2 // tailed triangle
    assert(q.adj(0) == Set(1, 2, 3))
    assert(q.degree(0) == 3 && q.degree(3) == 1)
    assert(q.hasEdge(1, 2) && q.hasEdge(2, 1) && !q.hasEdge(1, 3))
  }

  test("connectivity") {
    assert(Queries.q1.isConnected)
    assert(!QueryGraph(4, Seq((0, 1), (2, 3))).isConnected)
    assert(QueryGraph.path(2).isConnected)
  }

  test("star detection: stars, edges, non-stars") {
    def whole(q: QueryGraph) = SubQuery(q, q.edges.toSet)
    assert(whole(QueryGraph.star(4, 0, Seq(1, 2, 3))).isStar)
    assert(whole(QueryGraph.path(2)).isStar)          // a single edge is a 1-star
    assert(!whole(Queries.q1).isStar)                 // square
    assert(!whole(QueryGraph.path(4)).isStar)         // 3-edge path
    assert(whole(QueryGraph.path(3)).isStar)          // wedge = 2-star
    assert(whole(QueryGraph.star(5, 2, Seq(0, 1, 3, 4))).starRoots.contains(2))
  }

  // Known automorphism group sizes.
  val autSizes: Seq[(String, QueryGraph, Int)] = Seq(
    ("triangle", Queries.triangle, 6),
    ("q1 square", Queries.q1, 8),
    ("q2 tailed triangle", Queries.q2, 2),
    ("q3 4-clique", Queries.q3, 24),
    ("q4 diamond", Queries.q4, 4),
    ("q5 house", Queries.q5, 2),
    ("q6 tailed 4-clique", Queries.q6, 6),
    ("q7 5-path", Queries.q7, 2),
    ("q8 6-cycle", Queries.q8, 12),
    ("3-star", QueryGraph.star(4, 0, Seq(1, 2, 3)), 6),
  )
  for ((name, q, expected) <- autSizes)
    test(s"automorphism group of $name has order $expected") {
      assert(q.automorphisms.size == expected)
    }

  for ((name, q, _) <- autSizes)
    test(s"symmetry conditions of $name keep one match per automorphism class") {
      for ((gName, g) <- TestGraphs.all.take(3)) {
        val total  = LocalEnum.countMatches(q, g)
        val broken = LocalEnum.countMatches(q, g, q.symmetryConditions)
        assert(total == broken * q.automorphisms.size,
          s"on $gName: $total matches vs $broken × |Aut|=${q.automorphisms.size}")
      }
    }

  test("symmetry conditions of asymmetric queries are empty") {
    // Triangle with a 1-tail on vertex 0 and a 2-tail on vertex 1 is rigid.
    val rigid = QueryGraph(6, Seq((0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (4, 5)))
    assert(rigid.automorphisms.size == 1)
    assert(rigid.symmetryConditions.isEmpty)
  }

  test("edgesConnected distinguishes connected edge subsets") {
    val q = Queries.q1
    assert(q.edgesConnected(Seq((0, 1), (1, 2))))
    assert(!q.edgesConnected(Seq((0, 1), (2, 3))))
    assert(!q.edgesConnected(Nil))
  }

  test("factories: clique, cycle, path") {
    assert(QueryGraph.clique(5).edges.size == 10)
    assert(QueryGraph.cycle(6).edges.size == 6)
    assert(QueryGraph.path(4).edges.size == 3)
    assert(QueryGraph.clique(4).automorphisms.size == 24)
  }
}
