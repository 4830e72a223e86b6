package repro.engine

import org.scalatest.funsuite.AnyFunSuite

/** Algorithm 3 as a boxed reference model: `freeSet` iterates in the
  * vertex order (head = smallest = eviction candidate), `sealedSet` holds
  * S_sealed in seal order.
  */
final class ReferenceLrbu(capacity: Int) {
  private val map       = new java.util.HashMap[Integer, Array[Int]]()
  private val freeSet   = new java.util.LinkedHashMap[Integer, java.lang.Boolean]()
  private val sealedSet = new java.util.ArrayDeque[Integer]()

  def get(v: Int): Array[Int]   = map.get(v)
  def contains(v: Int): Boolean = map.containsKey(v)

  def insert(v: Int, nbrs: Array[Int]): Unit = {
    if (map.size() >= capacity && !freeSet.isEmpty) {
      val it     = freeSet.keySet().iterator()
      val victim = it.next()
      it.remove()
      map.remove(victim)
    }
    map.put(v, nbrs)
    freeSet.put(v, java.lang.Boolean.TRUE)
  }

  def seal(v: Int): Unit = if (freeSet.remove(v) != null) sealedSet.add(v)

  def release(): Unit =
    while (!sealedSet.isEmpty) {
      val v = sealedSet.poll()
      if (map.containsKey(v)) { freeSet.remove(v); freeSet.put(v, java.lang.Boolean.TRUE) }
    }

  def size: Int = map.size()
}

class CachesSpec extends AnyFunSuite {
  private def nb(x: Int) = Array(x)

  // Random sequences of Algorithm 3's operations, with inserts of absent
  // vertices only (as the fetch stage calls it). Capacities are mostly 1-8
  // and vertex ids few, so probe chains wrap around the small index and
  // deletes shift entries back across the wrap.
  test("LRBU, LRBU-Copy and LRBU-Lock match Algorithm 3's reference model") {
    for (seed <- 0 until 300; kind <- Seq(CacheKind.Lrbu, CacheKind.LrbuCopy, CacheKind.LrbuLock)) {
      val rnd      = new scala.util.Random(seed)
      val capacity = if (rnd.nextInt(4) == 0) 9 + rnd.nextInt(120) else 1 + rnd.nextInt(8)
      val ids      = 2 + rnd.nextInt(3 * capacity + 8)
      val lists    = Array.tabulate(ids)(v => Array(v, 2 * v))
      val c        = NbrCache(kind, capacity)
      val ref      = new ReferenceLrbu(capacity)
      for (step <- 0 until 400) {
        val v = rnd.nextInt(ids)
        rnd.nextInt(12) match {
          case 0 | 1 | 2 | 3 => if (!ref.contains(v)) { c.insert(v, lists(v)); ref.insert(v, lists(v)) }
          case 4 | 5 | 6 | 7 => c.seal(v); ref.seal(v)
          case 8             => c.release(); ref.release()
          case _             => assert(c.contains(v) == ref.contains(v)); c.get(v)
        }
        val at = s"$kind, seed $seed, capacity $capacity, step $step"
        assert(c.size == ref.size, at)
        for (u <- 0 until ids) {
          assert(c.contains(u) == ref.contains(u), s"$at: contains($u)")
          val (got, want) = (c.get(u), ref.get(u))
          if (kind == CacheKind.Lrbu) assert(got eq want, s"$at: get($u)")
          else assert(want == null && got == null || (got ne want) && got.sameElements(want), s"$at: get($u)")
        }
      }
    }
  }

  test("LRBU evicts the least-recent-batch (smallest order) vertex") {
    val c = new LrbuCache(2, copyOnGet = false, locked = false)
    c.insert(1, nb(1)); c.insert(2, nb(2))
    c.insert(3, nb(3)) // full: evict 1 (smallest order)
    assert(!c.contains(1) && c.contains(2) && c.contains(3))
    assert(c.size == 2)
  }

  test("LRBU seal protects an entry from eviction") {
    val c = new LrbuCache(2, copyOnGet = false, locked = false)
    c.insert(1, nb(1)); c.insert(2, nb(2))
    c.seal(1)
    c.insert(3, nb(3)) // must evict 2, not the sealed 1
    assert(c.contains(1) && !c.contains(2) && c.contains(3))
  }

  test("LRBU release gives released vertices the largest order") {
    val c = new LrbuCache(2, copyOnGet = false, locked = false)
    c.insert(1, nb(1)); c.insert(2, nb(2))
    c.seal(1); c.release() // order is now [2, 1]
    c.insert(3, nb(3))     // evicts 2
    assert(c.contains(1) && !c.contains(2) && c.contains(3))
  }

  test("LRBU overflows (bounded) when everything is sealed") {
    val c = new LrbuCache(1, copyOnGet = false, locked = false)
    c.insert(1, nb(1)); c.seal(1)
    c.insert(2, nb(2)) // free set empty: insert regardless of capacity
    assert(c.contains(1) && c.contains(2) && c.size == 2)
    c.release()
    c.insert(3, nb(3)) // now eviction resumes
    assert(c.size == 2)
  }

  test("LRBU get is zero-copy; LRBU-Copy clones") {
    val arr = nb(42)
    val c = new LrbuCache(4, copyOnGet = false, locked = false)
    c.insert(7, arr)
    assert(c.get(7) eq arr)
    val cc = new LrbuCache(4, copyOnGet = true, locked = false)
    cc.insert(7, arr)
    val got = cc.get(7)
    assert((got ne arr) && got.sameElements(arr))
  }

  test("LRBU get returns null for missing entries") {
    val c = new LrbuCache(4, copyOnGet = false, locked = false)
    assert(c.get(99) == null && !c.contains(99))
  }

  test("LRU-Inf never evicts and updates recency on read") {
    val c = new LruCache(Int.MaxValue, twoStage = true)
    for (i <- 1 to 1000) c.insert(i, nb(i))
    assert(c.size == 1000)
    assert((1 to 1000).forall(c.contains))
  }

  test("Cncr-LRU is bounded and disables the two-stage protocol") {
    val c = new LruCache(3, twoStage = false)
    assert(!c.twoStage)
    for (i <- 1 to 10) c.insert(i, nb(i))
    assert(c.size == 3)
    assert(c.contains(10) && !c.contains(1))
    // get refreshes recency: touch 8, insert new, 9 should go before 8.
    c.get(8)
    c.insert(11, nb(11))
    assert(c.contains(8) && !c.contains(9))
  }

  test("cache factory builds every Table 5 variant") {
    for (kind <- CacheKind.all) {
      val c = NbrCache(kind, 8)
      c.insert(1, nb(1))
      assert(c.get(1) != null, kind)
    }
  }

  test("cache kinds print as their Table 5 labels") {
    assert(CacheKind.all.map(_.toString) == Vector("lrbu", "lrbu-copy", "lrbu-lock", "lru-inf", "cncr-lru"))
  }

  test("concurrent reads on LRBU during a sealed batch are consistent") {
    val c = new LrbuCache(64, copyOnGet = false, locked = false)
    for (i <- 0 until 64) { c.insert(i, nb(i)); c.seal(i) }
    val threads = (0 until 8).map(_ => new Thread(() => {
      var j = 0
      while (j < 10000) { val v = j % 64; assert(c.get(v)(0) == v); j += 1 }
    }))
    threads.foreach(_.start()); threads.foreach(_.join())
    c.release()
    assert(c.size == 64)
  }
}
