package hugebench

import java.util.concurrent.{ExecutionException, Executors, TimeUnit, TimeoutException}
import scala.collection.mutable.ArrayBuffer

sealed trait Outcome
object Outcome {
  case object Ok                        extends Outcome
  final case class Wrong(got: Long)     extends Outcome
  case object TimedOut                  extends Outcome
  final case class Error(cause: String) extends Outcome
}

/** One query execution as the client saw it. `counters` are the
  * substrate's own numbers for this execution (empty on error).
  */
final case class Execution(wallSec: Double, outcome: Outcome, counters: Map[String, Double])

/** A query ready to run on one substrate. */
trait Subject {
  /** Name of the span around one call into the substrate. */
  def spanName: String
  /** Run the query once: its count and the substrate's counters. */
  def execute(): (Long, Map[String, Double])
  /** Ask a running `execute` to stop. */
  def cancel(): Unit = ()
}

/** The closed-loop client: one query at a time, the next submitted only
  * after the previous one returned. Each execution runs on a guard thread so
  * that one that outlives its deadline can be counted and abandoned; every
  * count is checked against `expected`.
  */
final class Client(subject: Subject, expected: Long) {
  private val guard = Executors.newSingleThreadExecutor { r =>
    val t = new Thread(r, "bench-query"); t.setDaemon(true); t
  }
  /** Set once an execution ignored its deadline; no further queries run. */
  var hung = false

  def once(tr: Tracer): Execution = {
    val t0 = System.nanoTime()
    val f  = guard.submit { () =>
      val s = System.nanoTime()
      val r = subject.execute()
      (r, s, System.nanoTime())
    }
    val limitMs = ((Shape.deadlineSec + Shape.hangGraceSec) * 1000).toLong
    try {
      val ((count, counters), s, e) = f.get(limitMs, TimeUnit.MILLISECONDS)
      val wall = (System.nanoTime() - t0) / 1e9
      tr.record(subject.spanName, s, e)
      val outcome =
        if (wall >= Shape.deadlineSec) Outcome.TimedOut
        else if (count != expected) Outcome.Wrong(count)
        else Outcome.Ok
      Execution(wall, outcome, counters)
    } catch {
      case _: TimeoutException =>
        subject.cancel()
        try f.get((Shape.hangGraceSec * 1000).toLong, TimeUnit.MILLISECONDS)
        catch {
          case _: TimeoutException   => hung = true
          case _: ExecutionException => () // it failed once cancelled
        }
        Execution((System.nanoTime() - t0) / 1e9, Outcome.TimedOut, Map.empty)
      case e: ExecutionException =>
        Execution((System.nanoTime() - t0) / 1e9, Outcome.Error(String.valueOf(e.getCause)), Map.empty)
    }
  }

  /** Run queries until `seconds` have passed and at least `minRuns` ran,
    * calling `between` (untimed) after each. Each execution is its own trace
    * run `<phase>-<i>`.
    */
  def loop(phase: String, seconds: Double, minRuns: Int, tr: Tracer,
           between: () => Unit = () => ()): Vector[Execution] = {
    val out   = ArrayBuffer.empty[Execution]
    val start = System.nanoTime()
    def elapsed = (System.nanoTime() - start) / 1e9
    while (!hung && (out.length < minRuns || elapsed < seconds)) {
      val e = tr.inRun(s"$phase-${out.length}")(tr.span("bench.query")(once(tr)))
      e.outcome match {
        case Outcome.Ok => ()
        case o          => Console.err.println(s"hugebench: $phase execution ${out.length}: $o")
      }
      out += e
      between()
    }
    out.toVector
  }

  def close(): Unit = guard.shutdownNow()
}
