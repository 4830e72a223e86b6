package hugebench

import java.io.File
import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** Benchmark entry point (normally started by `run.py`, which builds the
  * classpath):
  *
  *   hugebench.Main --workload <name> [--seed n] [--seconds s] [--trace 0|1] [--out dir]
  *
  * Prints `# `-prefixed environment and detail lines, then, as its last
  * line, one JSON object: `correct`, `attempted`, `failed` and `metrics`.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def fail(msg: String): Nothing = { Console.err.println(s"hugebench: $msg"); sys.exit(2) }
    val w = opts.get("workload").flatMap(Workloads.byName)
      .getOrElse(fail(s"--workload must be one of ${Workloads.all.map(_.name).mkString(", ")}"))
    val seed    = opts.get("seed").map(_.toLong).getOrElse(w.dataset.defaultSeed)
    val seconds = opts.getOrElse("seconds", "35").toDouble
    val traced  = opts.getOrElse("trace", "0") match {
      case "0" => false
      case "1" => true
      case t   => fail(s"--trace must be 0 or 1, not $t")
    }
    val outDir = new File(opts.getOrElse("out", ".bench_build/hugebench"))
    outDir.mkdirs()

    val rt = ManagementFactory.getRuntimeMXBean
    println(s"# env jdk=${System.getProperty("java.version")} vm=${System.getProperty("java.vm.name")} " +
      s"nproc=${Runtime.getRuntime.availableProcessors} " +
      s"jvm_flags=${rt.getInputArguments.asScala.filter(_.startsWith("-X")).mkString(" ")} " +
      s"max_heap=${Runtime.getRuntime.maxMemory} " +
      s"gc=${ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString(",")}")

    val r = new Bench(w, seed, seconds, traced, outDir).run()
    val metrics = r.metrics.map(m =>
      m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit))))
    println(Json.obj(Seq(
      "correct"   -> r.correct.toString,
      "attempted" -> r.attempted.toString,
      "failed"    -> r.failed.toString,
      "metrics"   -> Json.obj(metrics),
    )))
    // Engine worker pools and Spark leave non-daemon threads behind.
    sys.exit(0)
  }
}
