package repro.engine

import java.util.concurrent.atomic.AtomicLong

/** Modelled cluster parameters used to convert measured byte/RPC counters
  * into the paper's reported quantities (T, T_R, T_C, C, M).
  *
  * The engine is a real multi-threaded runtime — computation, caching,
  * queueing, spilling and stealing actually happen — but it runs inside one
  * process, so the *network* is modelled: every byte that would cross
  * machines is counted at the operator that would send it, then converted
  * to time with a 10 Gbps-class bandwidth and a per-RPC latency (DESIGN.md,
  * substitutions table). BENU's external key-value store is modelled as a
  * per-store-access latency, the paper's "large overhead of pulling (and
  * accessing cached) data from the external key-value store".
  */
final case class NetworkModel(
    bandwidthBytesPerSec: Double = 1.25e9, // 10 Gbps
    rpcLatencySec: Double = 100e-6,
    kvAccessLatencySec: Double = 300e-6,
)

object NetworkModel {
  /** The model the table benches use: the paper's 10 Gbps scaled by ~50x,
    * mirroring the ~100-3500x reduction of the data itself (DESIGN.md);
    * without this, communication is modelled as free at -lite scale and
    * every pushing system looks artificially competitive.
    */
  val benchScaled: NetworkModel = NetworkModel(bandwidthBytesPerSec = 25e6)
}

/** Mutable counters shared by all machines of one engine run. */
final class Metrics(val k: Int, val net: NetworkModel = NetworkModel()) {
  val bytesPushed  = new AtomicLong // shuffled partial results (hash join, pushed extends)
  val bytesPulled  = new AtomicLong // adjacency fetched via GetNbrs
  val rpcs         = new AtomicLong // bulk GetNbrs + StealWork calls
  val kvAccesses   = new AtomicLong // external-store accesses (BENU mode)
  /** Lookups of remote adjacency: one per distinct remote pivot per fetch
    * round with a two-stage cache, one per read with Cncr-LRU.
    */
  val cacheHits    = new AtomicLong
  val cacheMisses  = new AtomicLong
  val stealsIntra  = new AtomicLong
  val stealsInter  = new AtomicLong
  val stolenBytes  = new AtomicLong
  val results      = new AtomicLong
  val spilledBytes = new AtomicLong
  val fetchNanos   = new AtomicLong // time in PULL-EXTEND fetch stages (t_f, Exp-6)

  /** Per-machine currently-held intermediate bytes (queues + join buffers). */
  private val memNow  = Array.fill(k)(new AtomicLong)
  private val memPeak = Array.fill(k)(new AtomicLong)

  def memAdd(machine: Int, bytes: Long): Unit = {
    val now = memNow(machine).addAndGet(bytes)
    if (bytes > 0) memPeak(machine).getAndAccumulate(now, math.max)
  }

  /** Intermediate bytes `machine` holds right now. */
  def heldBytes(machine: Int): Long = memNow(machine).get

  def peakMemoryBytes: Long = memPeak.map(_.get).max

  var measuredWallSec: Double = 0.0
  /** True when the time limit stopped the run: `results` is then partial. */
  @volatile var timedOut: Boolean = false
  /** Extra compute time injected by models (e.g. kv-store latency). */
  def modelledComputeSec: Double = kvAccesses.get * net.kvAccessLatencySec

  /** Total bytes that would cross the network. */
  def commBytes: Long = bytesPushed.get + bytesPulled.get + stolenBytes.get

  /** Modelled communication time: aggregate bytes over k parallel links. */
  def commTimeSec: Double =
    commBytes / (net.bandwidthBytesPerSec * k) + rpcs.get * net.rpcLatencySec / k

  /** T_R: real compute wall time + modelled per-access store overhead. */
  def computeTimeSec: Double = measuredWallSec + modelledComputeSec

  /** T = T_R + T_C, the paper's accounting. */
  def totalTimeSec: Double = computeTimeSec + commTimeSec

  /** Hits over lookups, i.e. reuse across batches with a two-stage cache:
    * it falls as batches grow (fewer fetch rounds) even at level `bytesPulled`.
    */
  def hitRate: Double = {
    val h = cacheHits.get; val m = cacheMisses.get
    if (h + m == 0) 0.0 else h.toDouble / (h + m)
  }

  def summary: String =
    f"T=${totalTimeSec}%.2fs TR=${computeTimeSec}%.2fs TC=${commTimeSec}%.2fs " +
    f"C=${commBytes / 1e9}%.3fGB M=${peakMemoryBytes / 1e9}%.3fGB " +
    f"results=${results.get} hitRate=${hitRate}%.2f rpcs=${rpcs.get} " +
    f"steals=${stealsIntra.get}/${stealsInter.get}"
}
