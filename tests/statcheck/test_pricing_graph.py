"""Unit tests for the PRC pricing/telemetry-coverage engine."""

from pathlib import Path

from repro.statcheck import check_pricing, scan_pricing
from repro.statcheck.ast_lints import UNIT_PRICING
from repro.telemetry.instrument import CYCLE_FIELD_FAMILIES, METRIC_FAMILIES

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


class TestScanner:
    def test_real_tree_inventory(self):
        inv = scan_pricing(SRC_ROOT)
        assert inv.files_scanned > 50
        units = {b.unit for b in inv.bookings if b.unit}
        assert units <= set(UNIT_PRICING)
        assert {"softmax", "layernorm"} <= units
        assert len(inv.emitted_families()) == len(METRIC_FAMILIES)

    def test_forwarding_wrapper_not_a_booking_site(self):
        # Timeline.module_event forwards its own `unit` parameter into
        # TimelineEvent; only its callers are booking sites.
        inv = scan_pricing(SRC_ROOT)
        wrappers = [b for b in inv.bookings
                    if b.file.endswith("core/scheduler.py")
                    and b.unit is None]
        assert wrappers == []

    def test_gauge_table_idiom_recovered(self):
        src = (
            "def record(registry):\n"
            "    gauges = (('repro_serving_makespan_us', 'h', 1.0),)\n"
            "    for name, help_text, value in gauges:\n"
            "        registry.gauge(name, help_text).set(value)\n"
        )
        inv = scan_pricing(SRC_ROOT / "empty-none",
                           extra_sources={"repro/x.py": src})
        (site,) = inv.emissions
        assert site.metric is None
        assert site.recovered == ("repro_serving_makespan_us",)


class TestChecks:
    def test_real_tree_clean(self):
        checks, findings = check_pricing(SRC_ROOT)
        assert checks > 100
        assert findings == []

    def test_unpriced_unit_flagged(self):
        src = ("def schedule(timeline):\n"
               "    timeline.module_event('rowgen', 'dma2', 0, 64)\n")
        _, findings = check_pricing(
            SRC_ROOT, extra_sources={"repro/core/_x.py": src}
        )
        assert any(f.code == "PRC001" for f in findings)

    def test_unregistered_metric_flagged(self):
        src = ("def record(registry):\n"
               "    registry.counter('repro_phantom_total', 'x').inc(1)\n")
        _, findings = check_pricing(
            SRC_ROOT, extra_sources={"repro/telemetry/_x.py": src}
        )
        hits = [f for f in findings if f.code == "PRC002"]
        assert hits and hits[0].details["metric"] == "repro_phantom_total"

    def test_dynamic_name_without_literals_warns(self):
        src = ("def record(registry, name):\n"
               "    registry.counter(name, 'x').inc(1)\n")
        _, findings = check_pricing(
            SRC_ROOT, extra_sources={"repro/telemetry/_x.py": src}
        )
        assert any(f.code == "PRC004" and f.severity == "warning"
                   for f in findings)

    def test_checks_count_distinct_families_not_call_sites(self):
        family, other = sorted(METRIC_FAMILIES)[:2]

        def checks_with(*names):
            src = "def record(registry):\n" + "".join(
                f"    registry.counter({name!r}, 'x').inc(1)\n"
                for name in names
            )
            checks, _ = check_pricing(
                SRC_ROOT, extra_sources={"repro/telemetry/_x.py": src}
            )
            return checks

        once = checks_with(family)
        assert checks_with(family, family) == once
        assert checks_with(family, other) == once + 1

    def test_checks_count_distinct_bookings_not_call_sites(self):
        def checks_with(*events):
            src = "def schedule(timeline):\n" + "".join(
                f"    timeline.module_event({event!r}, 'softmax', 0, 64)\n"
                for event in events
            )
            checks, _ = check_pricing(
                SRC_ROOT, extra_sources={"repro/core/_x.py": src}
            )
            return checks

        once = checks_with("sm")
        assert checks_with("sm", "sm") == once
        assert checks_with("sm", "sm2") == once + 1


class TestRegistryParity:
    def test_every_cycle_field_maps_to_registered_family(self):
        for field_name, family in CYCLE_FIELD_FAMILIES.items():
            assert family in METRIC_FAMILIES, field_name

    def test_unit_pricing_fields_all_mapped(self):
        for unit, fields in UNIT_PRICING.items():
            for field_name in fields:
                assert field_name in CYCLE_FIELD_FAMILIES, (unit, field_name)

    def test_families_sorted_and_unique(self):
        assert list(METRIC_FAMILIES) == sorted(set(METRIC_FAMILIES))


class TestObsCoverage:
    """PR 10: the observability families are wired into the PRC graph."""

    OBS_FAMILIES = (
        "repro_obs_alert_active",
        "repro_obs_alerts_total",
        "repro_obs_burn_rate",
        "repro_obs_slo_bad_total",
        "repro_obs_slo_good_total",
        "repro_obs_traces_retained_total",
        "repro_obs_traces_total",
    )

    def test_all_obs_families_registered(self):
        for family in self.OBS_FAMILIES:
            assert family in METRIC_FAMILIES, family

    def test_every_obs_family_has_a_literal_emission_site(self):
        # PRC002 matches literal family names at call sites; each obs
        # family must therefore appear in the scanned inventory (no
        # f-string names that the lint cannot resolve).
        inv = scan_pricing(SRC_ROOT)
        emitted = inv.emitted_families()
        for family in self.OBS_FAMILIES:
            assert family in emitted, family

    def test_obs_emission_sites_live_in_the_obs_package(self):
        inv = scan_pricing(SRC_ROOT)
        files = {
            site.file
            for site in inv.emissions
            if (site.metric or "").startswith("repro_obs_")
        }
        assert files
        assert all(f.endswith(("obs/spans.py", "obs/slo.py"))
                   for f in sorted(files)), sorted(files)
