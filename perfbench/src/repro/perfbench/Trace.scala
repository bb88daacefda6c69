package repro.perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable.ArrayBuffer

/** One traced interval in System.nanoTime units; `parent` is -1 for a root. */
final case class Span(id: Int, name: String, start: Long, end: Long, parent: Int) {
  def dur: Long = end - start
}

/** In-memory span recorder for one benchmark run.
  *
  * `span` nests on the calling thread (the benchmark is a single client);
  * `add` records an interval measured elsewhere, such as a Spark job seen by
  * the listener, under an explicit parent. A disabled tracer records
  * nothing and only evaluates the body.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = ArrayBuffer.empty[Span]
  private var stack = List(-1)
  private var nextId = 0

  def span[T](name: String)(body: => T): T = {
    if (!enabled) return body
    val id = nextId; nextId += 1
    val parent = stack.head
    stack = id :: stack
    val t0 = System.nanoTime
    try body
    finally { spans += Span(id, name, t0, System.nanoTime, parent); stack = stack.tail }
  }

  /** Id of the innermost open span (-1 outside any span). */
  def current: Int = stack.head

  /** Id the next recorded span will get; spans are numbered in opening order. */
  def nextSpanId: Int = nextId

  def add(name: String, start: Long, end: Long, parent: Int): Int = {
    val id = nextId; nextId += 1
    spans += Span(id, name, start, math.max(start, end), parent)
    id
  }

  def all: Seq[Span] = spans.toSeq
  def clear(): Unit = spans.clear()
}

object Tracer {

  /** Self time of every span: its duration minus the union of its
    * children's intervals clipped to it. Never negative.
    */
  def selfTimes(spans: Seq[Span]): Map[Int, Long] = {
    val kids = spans.groupBy(_.parent)
    spans.map { s =>
      val iv = kids.getOrElse(s.id, Nil)
        .map(c => (math.max(c.start, s.start), math.min(c.end, s.end)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var lo = 0L; var hi = 0L; var open = false
      for ((a, b) <- iv) {
        if (open && a <= hi) hi = math.max(hi, b)
        else { if (open) covered += hi - lo; lo = a; hi = b; open = true }
      }
      if (open) covered += hi - lo
      s.id -> (s.dur - covered)
    }.toMap
  }

  /** Summed self time in ms per span name, over the spans under `root`
    * (root included), or over all spans when `root` is -1.
    */
  def selfMsByName(spans: Seq[Span], root: Int = -1): Map[String, Double] = {
    val self = selfTimes(spans)
    val byId = spans.map(s => s.id -> s).toMap
    def under(s: Span): Boolean =
      root < 0 || s.id == root || (s.parent >= 0 && byId.get(s.parent).exists(under))
    spans.filter(under).groupBy(_.name).map { case (n, ss) => n -> ss.map(s => self(s.id)).sum / 1e6 }
  }

  /** Writes one JSON object per span (times relative to the first span). */
  def write(spans: Seq[Span], file: File): Unit = {
    file.getParentFile.mkdirs()
    val self = selfTimes(spans)
    val t0   = if (spans.isEmpty) 0L else spans.map(_.start).min
    val w    = new PrintWriter(file, "UTF-8")
    try spans.sortBy(_.id).foreach { s =>
      w.println(Json.render(Map("id" -> s.id, "name" -> s.name, "parent" -> s.parent,
        "start_ns" -> (s.start - t0), "end_ns" -> (s.end - t0), "self_ns" -> self(s.id))))
    } finally w.close()
  }
}

/** Minimal JSON rendering for the run record (maps, sequences, strings,
  * booleans and numbers; doubles keep all their digits).
  */
object Json {
  def render(v: Any): String = v match {
    case null                 => "null"
    case s: String            => quote(s)
    case b: Boolean           => b.toString
    case i: Int               => i.toString
    case l: Long              => l.toString
    case d: Double            =>
      require(!d.isNaN && !d.isInfinite, s"non-finite metric value $d")
      d.toString
    case m: Map[_, _]         =>
      m.toSeq.map { case (k, x) => quote(k.toString) + ":" + render(x) }.sorted.mkString("{", ",", "}")
    case s: Iterable[_]       => s.map(render).mkString("[", ",", "]")
    case o                    => quote(o.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }
}
