package repro.spark

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core._

/** Measures, on the actual data, the communication volume each operator of
  * a dataflow would incur in a k-machine cluster (Remark 3.1's trade-off,
  * Exp-4/Exp-5's C column) — the Spark-side counterpart of the engine's
  * byte counters.
  *
  * Model (matches the engine): vertices are hash-partitioned over k
  * machines; a partial result lives on the machine of its first-bound
  * vertex; a pushing hash join shuffles both input relations (a (k-1)/k
  * fraction crosses machines); a PULL-EXTEND pulls, per machine, the
  * adjacency lists of the *distinct* remote pivot vertices it needs
  * (cache-less upper bound, and never more than k·|E_G|); a pushing one
  * (BiGJoin) moves each input row once per change of owner along its pivots.
  */
object CommAccounting {

  final case class OpComm(op: String, pushedBytes: Long, pulledBytes: Long)

  private def vcol(v: Int): String = s"v$v"

  /** Machine of a vertex id column — the same multiplicative hash as
    * PartitionedGraph.owner, computed in Long to avoid ANSI overflow:
    * ((v * M) mod 2^32) >>> 16, then mod k.
    */
  private def owner(c: Column, k: Int): Column =
    pmod(shiftright(pmod(c.cast("long") * lit(0x9E3779B9L), lit(4294967296L)), 16), lit(k.toLong))

  private def extendName(e: PullExtend): String = s"PULL-EXTEND(${e.ext.mkString(",")}->${e.target})"

  def measure(op: Op, edges: DataFrame, adj: DataFrame, k: Int): Vector[OpComm] = {
    val acc = Vector.newBuilder[OpComm]

    def anchor(o: Op): Int = o.matched.head

    def rec(o: Op): Unit = o match {
      case _: ScanEdge => // local by construction

      case e: PullExtend if e.comm == CommMode.Pushing =>
        rec(e.input)
        val owners = (anchor(e.input) +: e.ext).map(v => owner(col(vcol(v)), k))
        val trips  = owners.zip(owners.tail).map { case (a, b) => when(a =!= b, 1L).otherwise(0L) }
        val rowTrips = SparkExecutor.compile(e.input, edges, adj)
          .agg(coalesce(sum(trips.reduce(_ + _)), lit(0L))).head().getLong(0)
        acc += OpComm(extendName(e), 4L * e.input.matched.length * rowTrips, 0L)

      case e: PullExtend =>
        rec(e.input)
        val in      = SparkExecutor.compile(e.input, edges, adj)
        val machine = owner(col(vcol(anchor(e.input))), k).as("m")
        val pivots  = array(e.ext.map(d => col(vcol(d))): _*)
        val needed = in.select(machine, explode(pivots).as("pv"))
          .where(owner(col("pv"), k) =!= col("m"))
          .distinct()
        val pulled = needed.join(adj, needed("pv") === adj("vid"))
          .agg(coalesce(sum(lit(4) + lit(4) * size(col("nbrs"))), lit(0L)))
          .head().getLong(0)
        acc += OpComm(extendName(e), 0L, pulled)

      case j: PushJoin =>
        rec(j.left); rec(j.right)
        def shuffled(side: Op): Long = {
          val df = SparkExecutor.compile(side, edges, adj)
          val rows = df.count()
          rows * 4L * side.matched.length * (k - 1) / k
        }
        acc += OpComm(s"PUSH-JOIN(${j.key.mkString(",")})",
                      shuffled(j.left) + shuffled(j.right), 0L)
    }
    rec(op)
    acc.result()
  }

  def totals(op: Op, edges: DataFrame, adj: DataFrame, k: Int): (Long, Long) = {
    val per = measure(op, edges, adj, k)
    (per.map(_.pushedBytes).sum, per.map(_.pulledBytes).sum)
  }
}
