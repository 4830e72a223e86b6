package hugebench

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank percentile, p in (0, 100]. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    s(math.min(s.length - 1, math.max(0, math.ceil(p / 100 * s.length).toInt - 1)))
  }

  /** The highest of a few standard percentiles that still has at least ten
    * samples above it, if the sample is large enough for any.
    */
  def tailPercentile(n: Int): Option[Double] =
    Seq(99.9, 99.0, 95.0, 90.0, 75.0, 50.0).find(p => n * (100 - p) / 100 >= 10)
}

/** Minimal JSON rendering; values are passed pre-rendered. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'           => "\\\""
      case '\\'          => "\\\\"
      case c if c < ' '  => f"\\u${c.toInt}%04x"
      case c             => c.toString
    } + "\""

  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"not a finite number: $d")
    d.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
