package repro.bench

import repro.engine.CacheKind
import repro.engine.CacheKind._
import repro.tables.Table5

/** Table 5 — the cache-design ablation: LRBU vs LRBU-Copy / LRBU-Lock /
  * LRU-Inf / Cncr-LRU on q1–q3. The locks, copies, recency updates and
  * per-access fetches are real (JVM threads contending on the shared
  * cache), so the ordering is measured, not modelled. `Table5.run` takes
  * each cell's best of three repetitions after a warm-up to suppress
  * JIT/GC noise.
  */
class Table5Bench extends BenchBase {

  lazy val rows = Table5.run(timeLimitSec = 240.0)
  def t(q: String, kind: CacheKind) =
    rows.find(r => r.query == q && r.kind == kind).get.seconds
  def total(kind: CacheKind) = Seq("q1", "q2", "q3").map(t(_, kind)).sum

  test("table 5: render and record") {
    record("table5", "Table 5: cache designs on LJ-lite, 4 machines x 3 workers",
           Table5.render(rows))
    assert(rows.size == 15)
  }

  test("table 5: every cache design returns the same counts") {
    for (q <- Seq("q1", "q2", "q3"))
      assert(rows.filter(_.query == q).map(_.results).distinct.size == 1, q)
  }

  test("table 5: LRBU beats the no-two-stage concurrent LRU in aggregate") {
    assert(total(Lrbu) < total(CncrLru),
      s"lrbu=${total(Lrbu)} cncr=${total(CncrLru)}")
  }

  test("table 5: LRBU is the best design overall (5% tolerance)") {
    for (kind <- Seq(LrbuCopy, LrbuLock, LruInf, CncrLru))
      assert(total(Lrbu) < total(kind) * 1.05, s"lrbu not best vs $kind")
  }

  test("table 5: locked designs trail the lock-free read path") {
    assert(total(Lrbu) < math.min(total(LrbuLock), total(LruInf)) * 1.05)
  }

  test("table 5: the fetch stage (t_f) is a small fraction of runtime") {
    for (r <- rows if r.kind == Lrbu)
      assert(r.fetchSeconds < 0.5 * r.seconds,
        s"${r.query}: t_f=${r.fetchSeconds} vs ${r.seconds}")
  }
}
