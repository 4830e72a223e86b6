package repro.engine

import java.util.concurrent.{CountDownLatch, Executors, ThreadFactory}
import java.util.concurrent.atomic.AtomicReference
import scala.collection.mutable.ArrayBuffer

/** Per-machine worker pool implementing intra-machine work stealing (§5.3).
  *
  * The intersect stage of a batch is split into row chunks distributed
  * round-robin to per-worker deques. A worker pops from the *back* of its
  * own deque; when empty it picks a random victim and steals half of the
  * victim's chunks from the *front* (Chase–Lev style discipline over a
  * simple synchronized deque — the contention object is the shared cache,
  * not the deque, at this worker count).
  */
final class WorkerPool(val machine: Int, nWorkers: Int, metrics: Metrics) {
  require(nWorkers >= 1)

  private val exec = Executors.newFixedThreadPool(nWorkers, new ThreadFactory {
    private val n = new java.util.concurrent.atomic.AtomicInteger
    def newThread(r: Runnable): Thread = {
      val t = new Thread(r, s"m$machine-worker-${n.getAndIncrement()}")
      t.setDaemon(true); t
    }
  })

  /** [[runWeighted]] with every row weighing 1: chunks of `chunkSize` rows. */
  def run(rows: IndexedSeq[Array[Int]], chunkSize: Int,
          cancelled: () => Boolean = () => false, sink: ArrayBuffer[Array[Int]] => Unit = null)
         (process: (Array[Int], ArrayBuffer[Array[Int]]) => Unit): ArrayBuffer[Array[Int]] =
    runWeighted(rows, _ => 1L, chunkSize.toLong, cancelled, sink)(process)

  /** Process `rows` in parallel: `process(row, out)` appends result rows to
    * the worker-local buffer `out`. Each chunk is a run of consecutive rows
    * whose weights (`weight(i)` for row i) sum to at least `chunkWeight`,
    * except the last; a single chunk runs inline, on the calling thread.
    * The caller thread blocks until every chunk is done (the stage barrier
    * of §4.2). The first exception `process` or `sink` throws stops the
    * other workers and is rethrown here.
    *
    * With a `sink`, each worker hands its output to `sink` once, after its
    * last chunk (an inline run, on the calling thread), and nothing is
    * returned: a chain's last extend routes or counts its rows on the
    * workers that made them. Without one, all output rows are returned, for
    * the caller to cut into full `batchSize` batches on its own thread: a
    * non-last extend regroups its output there, because per-worker partial
    * batches would add fetch rounds, and with them RPCs, downstream.
    */
  def runWeighted(rows: IndexedSeq[Array[Int]], weight: Int => Long, chunkWeight: Long,
                  cancelled: () => Boolean, sink: ArrayBuffer[Array[Int]] => Unit = null)
                 (process: (Array[Int], ArrayBuffer[Array[Int]]) => Unit): ArrayBuffer[Array[Int]] = {
    // Chunk c is rows [cuts(c), cuts(c + 1)).
    val cuts    = new Array[Int](rows.length + 1)
    var nChunks = 0
    var acc     = 0L
    var i       = 0
    while (i < rows.length) {
      acc += weight(i)
      i += 1
      if (acc >= chunkWeight || i == rows.length) { nChunks += 1; cuts(nChunks) = i; acc = 0L }
    }
    def runRows(from: Int, until: Int, out: ArrayBuffer[Array[Int]], stop: => Boolean): Unit = {
      var r = from
      while (r < until && !stop) { process(rows(r), out); r += 1 }
    }
    def handOff(out: ArrayBuffer[Array[Int]]): Unit = if (sink != null && out.nonEmpty) { sink(out); out.clear() }
    if (nWorkers == 1 || nChunks <= 1) {
      val out = new ArrayBuffer[Array[Int]]()
      runRows(0, rows.length, out, cancelled())
      handOff(out)
      return out
    }
    val deques = Array.fill(nWorkers)(new java.util.ArrayDeque[Integer]())
    for (c <- 0 until nChunks) deques(c % nWorkers).addLast(c)
    val outs    = Array.fill(nWorkers)(new ArrayBuffer[Array[Int]]())
    val latch   = new CountDownLatch(nWorkers)
    val failure = new AtomicReference[Throwable]()
    def stopped = failure.get != null || cancelled()
    for (w <- 0 until nWorkers) exec.execute { () =>
      val rng = java.util.concurrent.ThreadLocalRandom.current()
      try {
        var done = false
        while (!done) {
          val chunk = deques(w).synchronized(deques(w).pollLast())
          if (chunk == null) {
            // Steal half of a random victim's remaining chunks from the front
            // (only the owner adds to a deque, so its own is empty here).
            val victim = deques(rng.nextInt(nWorkers))
            val stolen = victim.synchronized {
              (0 until (victim.size + 1) / 2).flatMap(_ => Option(victim.pollFirst()))
            }
            if (stolen.nonEmpty) {
              metrics.stealsIntra.incrementAndGet()
              deques(w).synchronized(stolen.foreach(deques(w).addLast))
            } else if (deques.forall(d => d.synchronized(d.isEmpty))) done = true
          } else if (!stopped) runRows(cuts(chunk), cuts(chunk + 1), outs(w), stopped)
          else done = true
        }
        handOff(outs(w))
      } catch {
        case e: Throwable => failure.compareAndSet(null, e)
      } finally latch.countDown()
    }
    latch.await()
    if (failure.get != null) throw failure.get
    val total = new ArrayBuffer[Array[Int]](outs.iterator.map(_.length).sum)
    outs.foreach(total ++= _)
    total
  }

  def shutdown(): Unit = exec.shutdownNow()
}

/** A bounded FIFO of row batches — the fixed-capacity output queue Q_O that
  * drives the DFS/BFS-adaptive scheduler (§5.2). Thread-safe because
  * inter-machine thieves dequeue from remote machines' queues.
  */
final class BatchQueue(capacityRows0: Long, machine: Int, metrics: Metrics) {
  /** Capacity 1 row = DFS-style scheduling (one batch in flight); the
    * queue still accepts the overflow of the producing batch (§5.2).
    */
  val capacityRows: Long = math.max(1L, capacityRows0)
  private val q = new java.util.ArrayDeque[Array[Array[Int]]]()
  private var rowCount: Long = 0L

  def enqueue(batch: Array[Array[Int]]): Unit = if (batch.nonEmpty) this.synchronized {
    q.addLast(batch)
    rowCount += batch.length
    metrics.memAdd(machine, Kernels.batchBytes(batch))
  }

  def tryDequeue(): Array[Array[Int]] = this.synchronized {
    val b = q.pollFirst()
    if (b != null) { rowCount -= b.length; metrics.memAdd(machine, -Kernels.batchBytes(b)) }
    b
  }

  def isFull: Boolean  = this.synchronized(rowCount >= capacityRows)
  def isEmpty: Boolean = this.synchronized(q.isEmpty)
}

/** Inter-machine StealWork (§5.3), the second stealing layer: an idle
  * machine visits the others in random order and takes one batch from the
  * first with queued work, at its top-most unfinished operator (earliest
  * non-empty input queue). A steal is one RPC carrying the batch into the
  * thief's own queue there, where its rows count toward the thief's memory.
  */
object StealWork {
  /** Move one batch from another machine's operator-qi input queue to the
    * thief's own; false when no other machine had queued work.
    */
  def apply(thief: Int, board: StageBoard, metrics: Metrics): Boolean = {
    val order  = java.util.concurrent.ThreadLocalRandom.current()
      .ints(0, board.k).distinct().limit(board.k.toLong).toArray
    val stolen = order.iterator.filter(_ != thief).map(board(_))
      .flatMap(v => v.queues.indices.iterator.map(qi => (qi, v.queues(qi).tryDequeue())))
      .find(_._2 != null)
    for ((qi, batch) <- stolen) {
      metrics.stealsInter.incrementAndGet()
      metrics.rpcs.incrementAndGet()
      metrics.stolenBytes.addAndGet(Kernels.batchBytes(batch))
      board(thief).queues(qi).enqueue(batch)
    }
    stolen.isDefined
  }
}
