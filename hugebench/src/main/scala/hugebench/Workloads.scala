package hugebench

import repro.baselines.Systems
import repro.engine.{EngineConfig, NetworkModel}
import repro.graph.{DataGraph, GraphGen, QueryGraph, Queries}

/** Generator parameters of one synthetic data graph. Each is a named
  * dataset of [[GraphGen.dataset]] (same skew `alpha` and degree cap) scaled
  * down so that one query takes well under a second and a run can measure
  * many of them.
  */
final case class Dataset(name: String, n: Int, m: Int, alpha: Double, maxDegree: Int,
                         defaultSeed: Long) {
  def generate(seed: Long): DataGraph = GraphGen.powerLaw(n, m, alpha, seed, maxDegree)
}

/** A query on a dataset, run on the engine. With `withSpark`, the traced run
  * also runs the same dataflow on the same graph through the Spark executor.
  */
final case class Workload(name: String, dataset: Dataset, queryName: String,
                          withSpark: Boolean = false) {
  def query: QueryGraph = Queries.byName(queryName)
}

object Workloads {
  // Default seeds are the -lite datasets' own (GraphGen.dataset).
  val UK: Dataset = Dataset("UK-bench", n = 12_000, m = 190_000, alpha = 0.62, maxDegree = 2500, defaultSeed = 104)
  val GO: Dataset = Dataset("GO-bench", n = 12_000, m = 32_000, alpha = 0.55, maxDegree = 100, defaultSeed = 101)

  val all: Vector[Workload] = Vector(
    Workload("uk-clique", UK, "q3"),
    Workload("go-cycle6", GO, "q8", withSpark = true),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}

/** The load shape shared by every workload: one client, 4 compute threads
  * (2 machines x 2 workers; Spark `local[4]`), HUGE's engine settings.
  */
object Shape {
  val machines          = 2
  val workers           = 2
  val batchSize         = 4096
  val queueRows         = 500_000L
  val net: NetworkModel = NetworkModel.benchScaled
  val sparkMaster       = "local[4]"
  val shufflePartitions = 8
  /** Engine-side deadline of one query; far above every workload's median. */
  val deadlineSec       = 30.0
  /** Extra wait before a query that ignores its deadline counts as hung. */
  val hangGraceSec      = 15.0

  def engineConfig(g: DataGraph): EngineConfig =
    Systems.config("HUGE", EngineConfig(machines = machines, workersPerMachine = workers,
      batchSize = batchSize, queueCapacityRows = queueRows, timeLimitSec = deadlineSec,
      net = net), g)
}
