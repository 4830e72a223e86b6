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

/** LRBU — least-recent-batch-used cache (Algorithm 3), in `Int` arrays.
  *
  * The index is an open-addressing vertex → position table with linear
  * probing; a vertex's neighbour list and its slot sit at its position, so
  * `get` is one probe plus one load. Deletes shift the following entries
  * of the probe chain back, so the table holds no tombstones.
  *
  * Each cached vertex holds a slot, which stays put while the vertex is
  * cached. S_free is an intrusive doubly linked list of slots ordered by
  * the vertex order Ord: its head has the smallest order and is evicted
  * first, and an inserted vertex joins at the tail. S_sealed is a FIFO of
  * slots; `release` appends them to S_free's tail in seal order, so
  * released vertices get an order larger than all existing ones
  * (Algorithm 3 line 12). When S_free is empty an insert overflows the
  * capacity, bounded by the remote vertices of one batch (§4.4).
  *
  * Reads never mutate, so with the single fetch-stage writer the cache is
  * lock-free and (unless `copyOnGet`) zero-copy. LRBU-Copy clones each
  * read; LRBU-Lock also takes the cache's lock on every call.
  */
final class LrbuCache(capacity: Int, copyOnGet: Boolean, locked: Boolean) extends NbrCache {
  private final val Empty  = -1 // vertex ids are non-negative
  private final val NoSlot = -1

  // The index, sized at most half full.
  private var mask  = Integer.highestOneBit(math.min(math.max(capacity, 2), 1 << 12) * 2 - 1) * 2 - 1
  private var keys  = Kernels.IntSet.empty(mask + 1)
  private var lists = new Array[Array[Int]](mask + 1)
  private var slots = new Array[Int](mask + 1)
  private var n     = 0

  // Slots: the vertex, the S_free links and whether it is sealed.
  private var vertexOf = new Array[Int](16)
  private var prev     = new Array[Int](16)
  private var next     = new Array[Int](16)
  private var isSealed = new Array[Boolean](16)
  private var nSlots   = 0
  private var head     = NoSlot
  private var tail     = NoSlot

  private var sealedQ = new Array[Int](16)
  private var nSealed = 0

  private def home(v: Int): Int = { val h = v * 0x9E3779B9; (h ^ (h >>> 16)) & mask }

  /** The position of `v`, or -1. */
  private def find(v: Int): Int = {
    var i = home(v)
    while (true) {
      val k = keys(i)
      if (k == v) return i
      if (k == Empty) return -1
      i = (i + 1) & mask
    }
    -1
  }

  def get(v: Int): Array[Int] = if (locked) synchronized(read(v)) else read(v)

  private def read(v: Int): Array[Int] = {
    val i = find(v)
    if (i < 0) null else if (copyOnGet) lists(i).clone() else lists(i)
  }

  def contains(v: Int): Boolean = if (locked) synchronized(find(v) >= 0) else find(v) >= 0

  def insert(v: Int, nbrs: Array[Int]): Unit = if (locked) synchronized(put(v, nbrs)) else put(v, nbrs)

  /** Algorithm 3's insert. A vertex already cached only gets the new list. */
  private def put(v: Int, nbrs: Array[Int]): Unit = {
    val at = find(v)
    if (at >= 0) { lists(at) = nbrs; return }
    val slot =
      if (n >= capacity && head != NoSlot) {
        // Evict the vertex with the smallest order = the least recent batch;
        // the new vertex takes its slot.
        val victim = head
        unlink(victim)
        delete(find(vertexOf(victim)))
        victim
      } else newSlot()
    vertexOf(slot) = v
    isSealed(slot) = false
    append(slot)
    if ((n + 1) * 2 > mask + 1) grow()
    place(v, nbrs, slot)
  }

  def seal(v: Int): Unit = if (locked) synchronized(sealVertex(v)) else sealVertex(v)

  private def sealVertex(v: Int): Unit = {
    val i = find(v)
    if (i >= 0 && !isSealed(slots(i))) {
      val s = slots(i)
      unlink(s)
      isSealed(s) = true
      if (nSealed == sealedQ.length) sealedQ = java.util.Arrays.copyOf(sealedQ, nSealed * 2)
      sealedQ(nSealed) = s
      nSealed += 1
    }
  }

  def release(): Unit = if (locked) synchronized(releaseAll()) else releaseAll()

  /** Append every sealed vertex to the tail of the order, in seal order. */
  private def releaseAll(): Unit = {
    var q = 0
    while (q < nSealed) {
      val s = sealedQ(q)
      isSealed(s) = false
      append(s)
      q += 1
    }
    nSealed = 0
  }

  def size: Int = if (locked) synchronized(n) else n

  // ---- S_free ---------------------------------------------------------------
  private def append(s: Int): Unit = {
    prev(s) = tail
    next(s) = NoSlot
    if (tail == NoSlot) head = s else next(tail) = s
    tail = s
  }

  private def unlink(s: Int): Unit = {
    if (prev(s) == NoSlot) head = next(s) else next(prev(s)) = next(s)
    if (next(s) == NoSlot) tail = prev(s) else prev(next(s)) = prev(s)
  }

  private def newSlot(): Int = {
    if (nSlots == vertexOf.length) {
      val len = nSlots * 2
      vertexOf = java.util.Arrays.copyOf(vertexOf, len)
      prev = java.util.Arrays.copyOf(prev, len)
      next = java.util.Arrays.copyOf(next, len)
      isSealed = java.util.Arrays.copyOf(isSealed, len)
    }
    nSlots += 1
    nSlots - 1
  }

  // ---- the index --------------------------------------------------------------
  /** Put an absent vertex at the first free position of its probe chain. */
  private def place(v: Int, nbrs: Array[Int], slot: Int): Unit = {
    var i = home(v)
    while (keys(i) != Empty) i = (i + 1) & mask
    keys(i) = v
    lists(i) = nbrs
    slots(i) = slot
    n += 1
  }

  /** Remove position `at`, shifting back each later entry of the probe
    * chain whose home does not lie cyclically in (at, j].
    */
  private def delete(at: Int): Unit = {
    var gap = at
    var j   = at
    while (true) {
      j = (j + 1) & mask
      val k = keys(j)
      if (k == Empty) {
        keys(gap) = Empty
        lists(gap) = null
        n -= 1
        return
      }
      val h = home(k)
      val stays = if (gap <= j) gap < h && h <= j else gap < h || h <= j
      if (!stays) {
        keys(gap) = k
        lists(gap) = lists(j)
        slots(gap) = slots(j)
        gap = j
      }
    }
  }

  private def grow(): Unit = {
    val (oldKeys, oldLists, oldSlots) = (keys, lists, slots)
    mask = mask * 2 + 1
    keys = Kernels.IntSet.empty(mask + 1)
    lists = new Array[Array[Int]](mask + 1)
    slots = new Array[Int](mask + 1)
    n = 0
    var i = 0
    while (i < oldKeys.length) {
      if (oldKeys(i) != Empty) place(oldKeys(i), oldLists(i), oldSlots(i))
      i += 1
    }
  }
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
