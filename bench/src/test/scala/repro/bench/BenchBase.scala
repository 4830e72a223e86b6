package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Base for the per-table benchmark suites: prints the reproduced table and
  * writes it to `bench/results/` under the forked test JVM's working
  * directory, `bench/`, i.e. `bench/bench/results/` in the repository, so
  * EXPERIMENTS.md can quote it.
  */
trait BenchBase extends AnyFunSuite {
  def record(name: String, title: String, table: String): Unit = {
    val text = s"$title\n$table\n"
    println(s"\n===== $name =====\n$text")
    val dir = new java.io.File("bench/results")
    dir.mkdirs()
    val f = new java.io.FileWriter(new java.io.File(dir, s"$name.txt"))
    try f.write(text) finally f.close()
  }
}
