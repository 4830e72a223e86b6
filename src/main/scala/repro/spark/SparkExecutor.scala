package repro.spark

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core._

/** Compiles a HUGE dataflow [[Op]] tree into a Spark DataFrame pipeline.
  *
  * Column `v<i>` holds the data vertex matched to query vertex i. The
  * physical mapping of the paper's operators:
  *
  *  - SCAN(edge)      -> projection of the both-directions edge table;
  *  - PULL-EXTEND     -> equi-join with the adjacency table on each pivot
  *    (only adjacency data — at most |E_G| per consumer — crosses the
  *    shuffle: the pulling side), then `array_intersect` + `explode`
  *    (Equation 2), or `array_contains` filters for verification extends;
  *  - PUSH-JOIN       -> DataFrame equi-join on the shared vertex columns
  *    (both *partial-result* relations shuffle: the pushing side);
  *  - symmetry conditions and injectivity -> `where` filters applied at the
  *    earliest operator, exactly as in the engines.
  */
object SparkExecutor {

  private val aliasCounter = new java.util.concurrent.atomic.AtomicInteger

  private def vcol(v: Int): String = s"v$v"

  private def condFilters(op: Op): Seq[Column] =
    op.conds.map { case (a, b) => col(vcol(a)) < col(vcol(b)) }

  private def distinctFilters(op: Op): Seq[Column] =
    op.distinctPairs.map { case (a, b) => col(vcol(a)) =!= col(vcol(b)) }

  /** Compile the op tree over the given edge/adjacency tables.
    * `scanSource` overrides the edge table of individual SCAN operators
    * (used by [[BatchedRunner]] to admit one pivot batch at a time).
    */
  def compile(op: Op, edges: DataFrame, adj: DataFrame,
              scanSource: ScanEdge => DataFrame = null): DataFrame = {
    val df = op match {
      case s @ ScanEdge(a, b, _) =>
        val src = if (scanSource == null) edges else scanSource(s)
        src.select(col("src").as(vcol(a)), col("dst").as(vcol(b)))

      case e: PullExtend =>
        // One adjacency join per extension pivot.
        var df = compile(e.input, edges, adj, scanSource)
        val nbrCols = e.ext.map { d =>
          val id  = aliasCounter.incrementAndGet()
          val key = s"_vid$id"; val nb = s"_nbrs$id"
          val a   = adj.select(col("vid").as(key), col("nbrs").as(nb))
          df = df.join(a, df(vcol(d)) === a(key)).drop(key)
          nb
        }
        if (e.verify) {
          val t = col(vcol(e.target))
          df.where(nbrCols.map(nb => array_contains(col(nb), t)).reduce(_ && _)).drop(nbrCols: _*)
        } else {
          val cands =
            if (nbrCols.size == 1) col(nbrCols.head)
            else nbrCols.map(col).reduce(array_intersect)
          df.withColumn(vcol(e.target), explode(cands)).drop(nbrCols: _*)
        }

      case j: PushJoin =>
        val l = compile(j.left, edges, adj, scanSource)
        l.join(compile(j.right, edges, adj, scanSource), j.key.map(vcol))
    }
    (distinctFilters(op) ++ condFilters(op)).foldLeft(df)(_ where _)
  }

  /** Count results of a dataflow (one row, column `cnt`). */
  def countDf(op: Op, edges: DataFrame, adj: DataFrame,
              scanSource: ScanEdge => DataFrame = null): DataFrame =
    compile(op, edges, adj, scanSource)
      .agg(org.apache.spark.sql.functions.count(lit(1)).as("cnt"))

  def count(op: Op, edges: DataFrame, adj: DataFrame,
            scanSource: ScanEdge => DataFrame = null): Long =
    countDf(op, edges, adj, scanSource).head().getLong(0)

  /** End-to-end: optimise q for the graph behind `edges`/`adj` and count
    * its subgraphs (symmetry-broken).
    */
  def countSubgraphs(q: repro.graph.QueryGraph, cost: CostModel,
                     edges: DataFrame, adj: DataFrame,
                     cfg: OptimiserConfig = OptimiserConfig()): Long = {
    val plan = Optimiser.optimise(q, cost, cfg)
    count(Dataflow.fromPlan(plan, q, q.symmetryConditions), edges, adj)
  }
}
