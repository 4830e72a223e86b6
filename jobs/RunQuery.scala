package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.graph.{GraphGen, Queries}
import repro.spark.{GraphDF, SparkExecutor}

/** spark-submit entrypoint: run one query on one dataset through the
  * Spark (Catalyst) incarnation of HUGE.
  *
  * Usage: RunQuery [dataset=GO] [query=q1] [space=huge|seed|eh|gf]
  */
object RunQuery {
  def main(args: Array[String]): Unit = {
    val dataset = args.headOption.getOrElse("GO")
    val query   = if (args.length > 1) args(1) else "q1"
    val space   = if (args.length > 2) args(2) else "huge"

    val spark = SparkSession.builder().master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"huge-$dataset-$query")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val g     = GraphGen.dataset(dataset)
      val q     = Queries.byName(query)
      val cost  = CostModel.of(g)
      val cfg   = space match {
        case "huge" => OptimiserConfig.huge(4)
        case "seed" => OptimiserConfig.seed(4)
        case "eh"   => OptimiserConfig.emptyHeaded
        case "gf"   => OptimiserConfig.graphFlow
      }
      val edges = GraphDF.edges(spark, g).cache()
      val adj   = GraphDF.adjacency(spark, g).cache()
      val t0    = System.nanoTime()
      val n     = SparkExecutor.countSubgraphs(q, cost, edges, adj, cfg)
      println(f"$dataset/$query [$space]: $n subgraphs in ${(System.nanoTime() - t0) / 1e9}%.1fs")
    } finally spark.stop()
  }
}
