"""A zero-dependency metrics registry with leakage secrecy tags.

The paper's §9 evaluation is an accounting exercise — where do rows,
fakes, EPC bytes and verification work go? — so the reproduction keeps
the same accounts at runtime: counters, gauges and fixed-bucket
histograms, grouped into labeled families, exported as JSON or
Prometheus text.

The security-flavoured twist is the **secrecy tag** every family
carries:

- :data:`PUBLIC_SIZE` — the value is a pure function of *public*
  parameters (dataset size n, grid geometry, bin size, the query shape
  the adversary observes anyway).  Volume hiding promises that two
  equal-public-size inputs produce identical values here, and
  :mod:`repro.telemetry.audit` asserts exactly that.
- :data:`DATA_DEPENDENT` — the value may depend on plaintext data (rows
  matched, real/fake split), on wall-clock timing (a side channel), or
  on the fault environment.  Exporting it to an untrusted monitoring
  sink would leak beyond the paper's L_s/L_q leakage profile.

``DATA_DEPENDENT`` is the registration default: mislabelling toward
*public* is the dangerous direction, and the auditor exists to catch it.

Families are created lazily (get-or-create) so instrumentation sites do
not need a central schema; re-registration with a conflicting kind,
label set, or secrecy tag fails loudly.  Label cardinality is capped per
family — values beyond the cap aggregate into :data:`OVERFLOW_LABEL`
rather than growing the registry without bound.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field

from repro.exceptions import TelemetryError

# One lock guards every mutation across every registry.  The sharded
# async router runs shard work on per-shard threads that all write into
# the same ambient registry, and ``+=`` on an attribute is a
# read-modify-write the GIL may interleave — without the lock,
# concurrent increments lose counts.  A single module-level lock (rather
# than per-child locks) keeps the child objects ``__slots__``-small and
# is never held across user code, only across a couple of attribute
# operations, so contention stays negligible next to query work.
_MUTATION_LOCK = threading.Lock()

PUBLIC_SIZE = "public-size"
DATA_DEPENDENT = "data-dependent"
SECRECY_LEVELS = (PUBLIC_SIZE, DATA_DEPENDENT)

# Per-family cap on distinct label-value combinations; beyond it, new
# combinations collapse into one overflow child.
DEFAULT_LABEL_CARDINALITY = 64
OVERFLOW_LABEL = "__overflow__"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise TelemetryError("counters only go up; use a gauge")
        with _MUTATION_LOCK:
            self.value += amount


class Gauge:
    """A value that can move in both directions (e.g. EPC bytes in use)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value: int | float) -> None:
        with _MUTATION_LOCK:
            self.value = value

    def inc(self, amount: int | float = 1) -> None:
        with _MUTATION_LOCK:
            self.value += amount

    def dec(self, amount: int | float = 1) -> None:
        with _MUTATION_LOCK:
            self.value -= amount

    def set_max(self, value: int | float) -> None:
        """Keep the high-water mark: ``value = max(value, current)``."""
        with _MUTATION_LOCK:
            if value > self.value:
                self.value = value


class Histogram:
    """Fixed-boundary cumulative histogram (Prometheus semantics).

    ``boundaries`` are the upper bounds of the finite buckets; one
    implicit ``+Inf`` bucket catches the rest.  Boundaries are fixed at
    registration so two runs of the same build always bucket alike.

    An observation may carry an **exemplar** — the trace id of the
    query that produced it (OpenMetrics-style).  The last exemplar per
    bucket is kept, so "what does a p99 query look like?" resolves to a
    dumpable trace.  Exemplars are operational breadcrumbs, not
    samples: they are exported, but excluded from the leakage auditor's
    public view (ids are public-counter-derived, yet *which bucket* a
    given query landed in is timing — a side channel).
    """

    __slots__ = ("boundaries", "bucket_counts", "sum", "count", "exemplars")

    def __init__(self, boundaries: tuple[float, ...]):
        self.boundaries = boundaries
        self.bucket_counts = [0] * (len(boundaries) + 1)
        self.sum = 0.0
        self.count = 0
        self.exemplars: dict[int, str] = {}

    def observe(self, value: int | float, trace_id: str | None = None) -> None:
        """Record one observation, optionally stamped with a trace id."""
        with _MUTATION_LOCK:
            self.sum += value
            self.count += 1
            position = len(self.boundaries)
            for index, bound in enumerate(self.boundaries):
                if value <= bound:
                    position = index
                    break
            self.bucket_counts[position] += 1
            if trace_id is not None:
                self.exemplars[position] = trace_id

    def cumulative_counts(self) -> list[int]:
        """Prometheus ``le`` buckets: cumulative counts, +Inf last."""
        total = 0
        out = []
        for count in self.bucket_counts:
            total += count
            out.append(total)
        return out


@dataclass
class MetricFamily:
    """One named metric and all its labeled children."""

    name: str
    kind: str                      # "counter" | "gauge" | "histogram"
    help: str
    secrecy: str
    label_names: tuple[str, ...]
    max_label_values: int
    boundaries: tuple[float, ...] | None = None   # histograms only
    children: dict[tuple, object] = field(default_factory=dict)
    _memo: dict[tuple, object] = field(
        default_factory=dict, compare=False, repr=False
    )

    def labels(self, **labels):
        """The child for one label-value combination (created on demand).

        Beyond ``max_label_values`` distinct combinations, new ones
        aggregate into a single :data:`OVERFLOW_LABEL` child so a buggy
        or adversarial label source cannot balloon the registry.

        A hit is one lookup of the call's ``(name, value)`` pairs in
        ``_memo`` (at most ``max_label_values`` entries, never an
        overflowed one).  Values match by ``==``: a label must not take
        values that are equal yet print differently (``1``, ``True``).
        """
        call = tuple(labels.items())
        child = self._memo.get(call)
        if child is not None:
            return child
        names = self.label_names
        if len(labels) != len(names) or not all(n in labels for n in names):
            raise TelemetryError(
                f"metric {self.name!r} takes labels {names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in names)
        # Two threads racing the first touch of a label combination must
        # agree on one child object, or increments land on an orphan and
        # the family under-counts.
        with _MUTATION_LOCK:
            child = self.children.get(key)
            if child is None:
                if len(self.children) >= self.max_label_values:
                    overflow = (OVERFLOW_LABEL,) * len(names)
                    if overflow not in self.children:
                        self.children[overflow] = self._new_child()
                    return self.children[overflow]
                child = self._new_child()
                self.children[key] = child
            if len(self._memo) < self.max_label_values:
                self._memo[call] = child
        return child

    def default(self):
        """The single unlabeled child of a label-less family."""
        if self.label_names:
            raise TelemetryError(
                f"metric {self.name!r} requires labels {self.label_names}"
            )
        child = self.children.get(())
        if child is None:
            with _MUTATION_LOCK:
                child = self.children.get(())
                if child is None:
                    child = self._new_child()
                    self.children[()] = child
        return child

    def _new_child(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.boundaries or ())

    # Convenience pass-throughs so label-less families read naturally:
    # ``registry.counter("x").inc()``.
    def inc(self, amount: int | float = 1) -> None:
        self.default().inc(amount)

    def dec(self, amount: int | float = 1) -> None:
        self.default().dec(amount)

    def set(self, value: int | float) -> None:
        self.default().set(value)

    def set_max(self, value: int | float) -> None:
        self.default().set_max(value)

    def observe(self, value: int | float, trace_id: str | None = None) -> None:
        self.default().observe(value, trace_id=trace_id)


class MetricsRegistry:
    """Holds every metric family of one measurement scope.

    >>> registry = MetricsRegistry()
    >>> registry.counter("demo_rows_total", "rows seen").inc(3)
    >>> registry.value("demo_rows_total")
    3
    """

    def __init__(self, max_label_values: int = DEFAULT_LABEL_CARDINALITY):
        self._families: dict[str, MetricFamily] = {}
        self._max_label_values = max_label_values

    # ------------------------------------------------------------ registration

    def counter(
        self,
        name: str,
        help: str = "",
        secrecy: str = DATA_DEPENDENT,
        labels: tuple[str, ...] = (),
    ) -> MetricFamily:
        """Get or create a counter family."""
        return self._family(name, "counter", help, secrecy, labels, None)

    def gauge(
        self,
        name: str,
        help: str = "",
        secrecy: str = DATA_DEPENDENT,
        labels: tuple[str, ...] = (),
    ) -> MetricFamily:
        """Get or create a gauge family."""
        return self._family(name, "gauge", help, secrecy, labels, None)

    def histogram(
        self,
        name: str,
        help: str = "",
        secrecy: str = DATA_DEPENDENT,
        labels: tuple[str, ...] = (),
        boundaries: tuple[float, ...] = (0.001, 0.01, 0.1, 1.0, 10.0),
    ) -> MetricFamily:
        """Get or create a histogram family with fixed bucket boundaries."""
        return self._family(name, "histogram", help, secrecy, labels, boundaries)

    def _family(self, name, kind, help, secrecy, labels, boundaries=None):
        family = self._families.get(name)
        if (
            family is not None
            and family.kind == kind
            and family.label_names == labels
            and family.secrecy == secrecy
        ):
            return family
        if family is None:
            # First registration may race across threads; serialize it so
            # both sites end up holding the same family object.
            with _MUTATION_LOCK:
                family = self._families.get(name)
                if family is None:
                    return self._register(
                        name, kind, help, secrecy, labels, boundaries
                    )
        if family.kind != kind:
            raise TelemetryError(
                f"metric {name!r} already registered as {family.kind}"
            )
        if family.label_names != tuple(labels):
            raise TelemetryError(
                f"metric {name!r} already registered with labels "
                f"{family.label_names}, not {tuple(labels)}"
            )
        if family.secrecy != secrecy:
            raise TelemetryError(
                f"metric {name!r} already registered with secrecy "
                f"{family.secrecy!r}, not {secrecy!r}"
            )
        return family

    def _register(self, name, kind, help, secrecy, labels, boundaries):
        if not _NAME_RE.match(name):
            raise TelemetryError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise TelemetryError(f"invalid label name {label!r}")
        if secrecy not in SECRECY_LEVELS:
            raise TelemetryError(
                f"unknown secrecy {secrecy!r}; use one of {SECRECY_LEVELS}"
            )
        if boundaries is not None and tuple(boundaries) != tuple(
            sorted(boundaries)
        ):
            raise TelemetryError("histogram boundaries must be sorted")
        family = MetricFamily(
            name=name,
            kind=kind,
            help=help,
            secrecy=secrecy,
            label_names=tuple(labels),
            max_label_values=self._max_label_values,
            boundaries=tuple(boundaries) if boundaries is not None else None,
        )
        self._families[name] = family
        return family

    # ---------------------------------------------------------------- reading

    def families(self) -> list[MetricFamily]:
        """All families, sorted by name."""
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> MetricFamily | None:
        """A family by name, or ``None``."""
        return self._families.get(name)

    def value(self, name: str, **labels):
        """One child's value (counter/gauge) — 0 if never touched."""
        family = self._families.get(name)
        if family is None:
            return 0
        if set(labels) != set(family.label_names):
            raise TelemetryError(
                f"metric {name!r} takes labels {family.label_names}"
            )
        key = tuple(str(labels[n]) for n in family.label_names)
        child = family.children.get(key)
        if child is None:
            return 0
        return child.value

    def total(self, name: str):
        """Sum of a counter/gauge family's children across all labels."""
        family = self._families.get(name)
        if family is None:
            return 0
        return sum(child.value for child in family.children.values())

    def label_values(self, name: str) -> dict[tuple, object]:
        """``{label-tuple: value}`` for a counter/gauge family."""
        family = self._families.get(name)
        if family is None:
            return {}
        return {key: child.value for key, child in family.children.items()}

    # -------------------------------------------------------------- exporters

    def to_json(self) -> str:
        """The whole registry as a JSON document (see :meth:`snapshot`)."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def snapshot(self) -> dict:
        """A plain-dict view of every family, for JSON export or asserts."""
        out: dict = {}
        for family in self.families():
            samples = []
            for key in sorted(family.children):
                child = family.children[key]
                labels = dict(zip(family.label_names, key))
                if family.kind == "histogram":
                    bounds = [str(b) for b in (family.boundaries or ())] + [
                        "+Inf"
                    ]
                    sample = {
                        "labels": labels,
                        "buckets": dict(
                            zip(bounds, child.cumulative_counts())
                        ),
                        "sum": child.sum,
                        "count": child.count,
                    }
                    if child.exemplars:
                        sample["exemplars"] = {
                            bounds[position]: trace_id
                            for position, trace_id in sorted(
                                child.exemplars.items()
                            )
                        }
                    samples.append(sample)
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "secrecy": family.secrecy,
                "samples": samples,
            }
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (v0.0.4 line format).

        The secrecy tag rides along as a ``# SECRECY`` comment line so a
        scrape-side policy can drop ``data-dependent`` series before
        they leave the trust boundary.
        """
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            lines.append(f"# SECRECY {family.name} {family.secrecy}")
            for key in sorted(family.children):
                child = family.children[key]
                labels = dict(zip(family.label_names, key))
                if family.kind == "histogram":
                    bounds = [str(float(b)) for b in (family.boundaries or ())]
                    for position, (bound, count) in enumerate(
                        zip(bounds + ["+Inf"], child.cumulative_counts())
                    ):
                        line = (
                            f"{family.name}_bucket"
                            f"{_label_text({**labels, 'le': bound})} {count}"
                        )
                        exemplar = child.exemplars.get(position)
                        if exemplar is not None:
                            # OpenMetrics-flavoured exemplar annotation;
                            # plain v0.0.4 parsers ignore everything
                            # after the value only in OpenMetrics, so
                            # ride it on a comment line instead.
                            lines.append(line)
                            lines.append(
                                f"# EXEMPLAR {family.name}_bucket"
                                f"{_label_text({**labels, 'le': bound})} "
                                f"trace_id={exemplar}"
                            )
                        else:
                            lines.append(line)
                    lines.append(
                        f"{family.name}_sum{_label_text(labels)} "
                        f"{_format_number(child.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{_label_text(labels)} {child.count}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_label_text(labels)} "
                        f"{_format_number(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _label_text(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in labels.items()
    )
    return "{" + inner + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _format_number(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
