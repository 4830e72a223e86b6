package repro.engine

import org.scalatest.funsuite.AnyFunSuite

/** The ordering contract of one PUSH-JOIN side: `sortedIterator` returns
  * every row added, ordered by the key columns as `JoinSideBuffer.compareKeys`
  * orders them, whether the rows stayed in memory or were spilled as runs.
  */
class JoinSideBufferSpec extends AnyFunSuite {

  private val width = 5 // key values in columns 0-3, the row's number in column 4
  private val keyColsByArity = Map(
    1 -> Array(2),
    2 -> Array(3, 0),
    3 -> Array(1, 3, 2))

  /** Rows whose key values are spread over the whole non-negative Int range,
    * plus a few negative ones (`full`), so every radix digit varies and the
    * order must be signed `Int` order, or lie in 65,536 + [0, 1,000)
    * (`narrow`), so several key columns share one composite key. Half the
    * values come from a few fixed ones, so rows tie on a leading column and
    * the later columns decide.
    */
  private def rows(n: Int, seed: Int, full: Boolean = true): Vector[Array[Int]] = {
    val rng   = new scala.util.Random(seed)
    val fixed =
      if (full) Array(Int.MinValue, -1, 0, 1, 255, 65535, 65536, Int.MaxValue - 1, Int.MaxValue)
      else Array(65536, 65537, 65536 + 511, 65536 + 512, 65536 + 999)
    Vector.tabulate(n) { i =>
      Array.tabulate(width) { c =>
        if (c == width - 1) i
        else if (rng.nextBoolean()) fixed(rng.nextInt(fixed.length))
        else if (full) rng.nextInt() & Int.MaxValue
        else 65536 + rng.nextInt(1000)
      }
    }
  }

  private def lex(a: Array[Int], b: Array[Int]): Boolean =
    java.util.Arrays.compare(a, b) < 0

  for ((arity, keyCols) <- keyColsByArity.toSeq.sortBy(_._1);
       (range, full) <- Seq("full-range" -> true, "narrow" -> false);
       (mode, threshold) <- Seq("in memory" -> Int.MaxValue, "spilled runs" -> 97))
    test(s"$arity-column $range key: sortedIterator is a key-ordered permutation ($mode)") {
      val metrics = new Metrics(2)
      val buf     = new JoinSideBuffer(width, keyCols, threshold, 1, metrics)
      val in      = rows(2000, seed = arity, full)
      in.foreach(buf.add)
      assert(buf.rows == in.length)
      if (threshold < in.length) assert(metrics.spilledBytes.get > 0, "tiny threshold must spill")
      else assert(metrics.spilledBytes.get == 0)

      val out = buf.sortedIterator().toVector
      assert(out.length == in.length)
      out.sliding(2).foreach {
        case Seq(a, b) =>
          assert(JoinSideBuffer.compareKeys(a, keyCols, b, keyCols) <= 0,
            s"${a.mkString(",")} before ${b.mkString(",")}")
        case _ =>
      }
      assert(out.sortWith(lex).map(_.toSeq) == in.sortWith(lex).map(_.toSeq))

      buf.clear()
      assert(metrics.heldBytes(1) == 0)
      assert(metrics.heldBytes(0) == 0)
    }

  // Thresholds from 1 row to unbounded and row counts on both sides of
  // their multiples and of the buffer's doublings, appended in chunks of 1
  // to 40 rows so that chunks straddle spill boundaries.
  test("across buffer growth and every spill boundary: a key-ordered permutation, and nothing held after clear") {
    val keyCols = keyColsByArity(2)
    val chunks  = new scala.util.Random(11)
    for (threshold <- Seq(1, 2, 3, 5, 16, 64, Int.MaxValue);
         n <- Seq(0, 1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 129, 300)) {
      val clue    = s"threshold $threshold, $n rows"
      val metrics = new Metrics(1)
      val buf     = new JoinSideBuffer(width, keyCols, threshold, 0, metrics)
      val in      = rows(n, seed = n * 31 + threshold, full = n % 2 == 0)
      val flat    = in.flatMap(_.toSeq).toArray
      var from    = 0
      while (from < n) {
        val until = math.min(n, from + 1 + chunks.nextInt(40))
        buf.addAll(flat, from, until)
        from = until
      }
      assert(buf.rows == n, clue)
      assert(metrics.spilledBytes.get == 4L * width * (n - n % threshold), clue)
      assert(metrics.heldBytes(0) == 4L * width * (n % threshold), clue)
      val out = buf.sortedIterator().toVector
      out.sliding(2).foreach {
        case Seq(a, b) => assert(JoinSideBuffer.compareKeys(a, keyCols, b, keyCols) <= 0, clue)
        case _         =>
      }
      assert(out.sortWith(lex).map(_.toSeq) == in.sortWith(lex).map(_.toSeq), clue)
      buf.clear()
      assert(metrics.heldBytes(0) == 0, clue)
    }
  }

  test("empty side: sortedIterator is empty and clear leaves nothing held") {
    val metrics = new Metrics(1)
    val buf     = new JoinSideBuffer(width, keyColsByArity(2), 4, 0, metrics)
    assert(!buf.sortedIterator().hasNext)
    buf.clear()
    assert(metrics.heldBytes(0) == 0)
  }

  test("held bytes follow the buffered rows and drop to 0 after clear") {
    val metrics = new Metrics(1)
    val buf     = new JoinSideBuffer(width, keyColsByArity(1), 10, 0, metrics)
    rows(25, seed = 5).foreach(buf.add)
    assert(metrics.heldBytes(0) == 4L * width * 5, "20 rows spilled, 5 still in memory")
    assert(buf.sortedIterator().length == 25)
    buf.clear()
    assert(metrics.heldBytes(0) == 0)
  }
}
