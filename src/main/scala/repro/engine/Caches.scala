package repro.engine

/** Per-machine cache of remote adjacency lists (§4.4).
  *
  * The contract mirrors the paper's two-stage execution: `contains` /
  * `seal` / `insert` / `release` are called only by the machine's scheduler
  * thread during the *fetch* stage (single writer); `get` is called
  * concurrently by all workers during the *intersect* stage. LRBU makes the
  * read path lock-free and zero-copy; the Table 5 ablation variants
  * re-introduce copies and locks, and Cncr-LRU abandons the two-stage
  * protocol entirely (per-access fetching).
  */
trait NbrCache {
  /** Read path (intersect stage). Returns null when absent. */
  def get(v: Int): Array[Int]
  def contains(v: Int): Boolean
  def insert(v: Int, nbrs: Array[Int]): Unit
  def seal(v: Int): Unit
  def release(): Unit
  /** False for Cncr-LRU: the operator must fetch per access, not per batch. */
  def twoStage: Boolean = true
  def size: Int
}

/** The Table 5 cache designs; each prints as its table label. */
sealed abstract class CacheKind(label: String) { override def toString: String = label }

object CacheKind {
  case object Lrbu     extends CacheKind("lrbu")
  case object LrbuCopy extends CacheKind("lrbu-copy")
  case object LrbuLock extends CacheKind("lrbu-lock")
  case object LruInf   extends CacheKind("lru-inf")
  case object CncrLru  extends CacheKind("cncr-lru")

  val all: Vector[CacheKind] = Vector(Lrbu, LrbuCopy, LrbuLock, LruInf, CncrLru)
}

object NbrCache {
  import CacheKind._

  /** Factory for the Table 5 cache designs. */
  def apply(kind: CacheKind, capacity: Int): NbrCache = kind match {
    case Lrbu     => new LrbuCache(capacity, copyOnGet = false, locked = false)
    case LrbuCopy => new LrbuCache(capacity, copyOnGet = true,  locked = false)
    case LrbuLock => new LrbuCache(capacity, copyOnGet = true,  locked = true)
    case LruInf   => new LruCache(Int.MaxValue, twoStage = true)
    case CncrLru  => new LruCache(capacity, twoStage = false)
  }
}

/** LRBU — least-recent-batch-used cache (Algorithm 3).
  *
  * `freeSet` is the ordered set S_free: a LinkedHashMap whose iteration
  * order is the vertex order Ord (head = smallest = eviction candidate;
  * re-insertion at the tail gives released vertices an order larger than
  * all existing ones, exactly Algorithm 3 line 12). `sealedSet` is
  * S_sealed. Reads never mutate, so with the single fetch-stage writer the
  * cache is lock-free and (unless `copyOnGet`) zero-copy.
  */
final class LrbuCache(capacity: Int, copyOnGet: Boolean, locked: Boolean) extends NbrCache {
  private val map       = new java.util.HashMap[Integer, Array[Int]]()
  private val freeSet   = new java.util.LinkedHashMap[Integer, java.lang.Boolean]()
  private val sealedSet = new java.util.ArrayDeque[Integer]()

  private def withLock[A](a: => A): A = if (locked) this.synchronized(a) else a

  def get(v: Int): Array[Int] = withLock {
    val r = map.get(v)
    if (r != null && copyOnGet) r.clone() else r
  }

  def contains(v: Int): Boolean = withLock { map.containsKey(v) }

  def insert(v: Int, nbrs: Array[Int]): Unit = withLock {
    if (map.size() >= capacity && !freeSet.isEmpty) {
      // Evict the vertex with the smallest order = the least recent batch.
      val it     = freeSet.keySet().iterator()
      val victim = it.next()
      it.remove()
      map.remove(victim)
    }
    // If freeSet is empty the cache may overflow — bounded by the number of
    // remote vertices in one batch (§4.4).
    map.put(v, nbrs)
    freeSet.put(v, java.lang.Boolean.TRUE)
  }

  def seal(v: Int): Unit = withLock {
    if (freeSet.remove(v) != null) sealedSet.add(v)
  }

  def release(): Unit = withLock {
    // Pop all sealed vertices and append them at the tail of the order.
    while (!sealedSet.isEmpty) {
      val v = sealedSet.poll()
      if (map.containsKey(v)) { freeSet.remove(v); freeSet.put(v, java.lang.Boolean.TRUE) }
    }
  }

  def size: Int = withLock { map.size() }
}

/** Classic LRU updated on every read — reads mutate recency, so every
  * access takes the lock. Capacity Int.MaxValue reproduces LRU-Inf. With
  * `twoStage = false` it is the paper's Cncr-LRU baseline: workers fetch
  * remote adjacency on demand during the intersection (per-access RPCs) and
  * contend on the shared lock.
  */
final class LruCache(capacity: Int, override val twoStage: Boolean) extends NbrCache {
  private val map = new java.util.LinkedHashMap[Integer, Array[Int]](16, 0.75f, true) {
    override def removeEldestEntry(e: java.util.Map.Entry[Integer, Array[Int]]): Boolean =
      this.size() > capacity
  }
  def get(v: Int): Array[Int] = this.synchronized {
    val r = map.get(v)
    if (r != null) r.clone() else null
  }
  def contains(v: Int): Boolean = this.synchronized { map.containsKey(v) }
  def insert(v: Int, nbrs: Array[Int]): Unit = this.synchronized { map.put(v, nbrs); () }
  def seal(v: Int): Unit = ()
  def release(): Unit = ()
  def size: Int = this.synchronized { map.size() }
}
