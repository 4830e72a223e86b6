package hugebench

import java.io.{File, PrintWriter}
import scala.collection.mutable.ArrayBuffer

/** In-memory spans around the benchmark's calls into each layer.
  *
  * A span has a name (`<layer>.<call>`), start and end, its parent span and
  * the run it belongs to (one setup, one query execution, ...). Spans are
  * kept in memory and written out once, at the end. Only the client thread
  * records spans, so a plain stack tracks nesting. When disabled, `span`
  * just evaluates its body.
  */
object Tracer {
  val off = new Tracer(false)

  final case class Span(id: Int, parent: Int, run: String, name: String,
                        startNs: Long, endNs: Long) {
    def layer: String = name.takeWhile(_ != '.')
    def durNs: Long   = endNs - startNs
  }
}

final class Tracer(val enabled: Boolean) {
  import Tracer.Span

  private val spans  = ArrayBuffer.empty[Span]
  private var stack  = List.empty[Int]
  private var nextId = 0
  private var run    = ""

  def inRun[A](runId: String)(body: => A): A = {
    val prev = run
    run = runId
    try body finally run = prev
  }

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id     = nextId
      val parent = stack.headOption.getOrElse(-1)
      nextId += 1
      stack = id :: stack
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, parent, run, name, t0, System.nanoTime())
        stack = stack.tail
      }
    }

  /** Add a finished span timed elsewhere (on another thread) as a child of
    * the current span.
    */
  def record(name: String, startNs: Long, endNs: Long): Unit =
    if (enabled) {
      spans += Span(nextId, stack.headOption.getOrElse(-1), run, name, startNs, endNs)
      nextId += 1
    }

  /** Span duration minus the time its child spans cover (children are
    * sequential, since one thread records them).
    */
  def selfNs: Map[Int, Long] = {
    val childNs = spans.groupMapReduce(_.parent)(_.durNs)(_ + _)
    spans.iterator.map(s => s.id -> (s.durNs - childNs.getOrElse(s.id, 0L))).toMap
  }

  /** Durations in seconds of every span with this name. */
  def durations(name: String): Seq[Double] =
    spans.iterator.filter(_.name == name).map(_.durNs / 1e9).toSeq

  /** Per run whose id starts with `runPrefix`: the self seconds of `layer`'s
    * spans in that run. One value per run.
    */
  def selfPerRun(runPrefix: String, layer: String): Seq[Double] = {
    val self = selfNs
    spans.filter(_.run.startsWith(runPrefix)).groupBy(_.run).values.map { ss =>
      ss.iterator.filter(_.layer == layer).map(s => self(s.id)).sum / 1e9
    }.toSeq
  }

  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val self = selfNs
    val out  = new PrintWriter(file)
    try spans.sortBy(_.id).foreach { s =>
      out.println(Json.obj(Seq("id" -> s.id.toString, "parent" -> s.parent.toString,
        "run" -> Json.str(s.run), "name" -> Json.str(s.name),
        "start_ns" -> s.startNs.toString, "end_ns" -> s.endNs.toString,
        "self_ns" -> self(s.id).toString)))
    } finally out.close()
  }
}
