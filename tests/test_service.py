"""Unit tests for the incremental alignment service stack.

Covers the delta layer bottom-up: ontology retraction with index
cleanup, literal-index and functionality invalidation, the delta JSON
codec, versioned state snapshots, the service engine, and the HTTP
front-end (exercised in-process over an ephemeral port).
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import OntologyBuilder, ParisConfig, align
from repro.core.functionality import FunctionalityOracle
from repro.core.literal_index import LiteralIndex
from repro.datasets.incremental import family_addition, family_pair
from repro.literals import IdentitySimilarity
from repro.rdf.ontology import Ontology
from repro.rdf.terms import Literal, Relation, Resource
from repro.rdf.triples import Triple
from repro.service import (
    AlignmentService,
    AlignmentState,
    Delta,
    apply_delta,
    latest_version,
    load_state,
    save_state,
)
from repro.service.delta import triple_from_json, triple_to_json
from repro.service.server import build_server


class TestOntologyRemove:
    @pytest.fixture()
    def ontology(self):
        return (
            OntologyBuilder("o")
            .value("e1", "name", "Elvis")
            .fact("e1", "bornIn", "Tupelo")
            .type("e1", "Singer")
            .build()
        )

    def test_remove_data_statement(self, ontology):
        assert ontology.remove(Resource("e1"), Relation("bornIn"), Resource("Tupelo"))
        assert not ontology.has(Resource("e1"), Relation("bornIn"), Resource("Tupelo"))
        assert not ontology.has(Resource("Tupelo"), Relation("bornIn").inverse, Resource("e1"))
        assert ontology.num_statements(Relation("bornIn")) == 0
        # Tupelo had no other statements: gone from the instance set.
        assert Resource("Tupelo") not in ontology.instances
        assert Resource("e1") in ontology.instances

    def test_remove_absent_statement_is_noop(self, ontology):
        assert not ontology.remove(Resource("e1"), Relation("diedIn"), Resource("Memphis"))
        assert ontology.num_facts == 2

    def test_remove_literal_statement_cleans_literal(self, ontology):
        assert ontology.remove(Resource("e1"), Relation("name"), Literal("Elvis"))
        assert Literal("Elvis") not in ontology.literals

    def test_literal_with_other_uses_survives(self, ontology):
        ontology.add(Resource("e2"), Relation("name"), Literal("Elvis"))
        ontology.remove(Resource("e1"), Relation("name"), Literal("Elvis"))
        assert Literal("Elvis") in ontology.literals

    def test_remove_type(self, ontology):
        assert ontology.remove_type(Resource("e1"), Resource("Singer"))
        assert not ontology.classes_of(Resource("e1"))
        # e1 keeps its data statements, so it stays an instance.
        assert Resource("e1") in ontology.instances

    def test_instance_with_only_type_survives_until_type_removed(self):
        ontology = Ontology("o")
        ontology.add_type(Resource("x"), Resource("C"))
        assert Resource("x") in ontology.instances
        assert ontology.remove_type(Resource("x"), Resource("C"))
        assert Resource("x") not in ontology.instances

    def test_remove_via_inverse_relation(self, ontology):
        assert ontology.remove(
            Resource("Tupelo"), Relation("bornIn").inverse, Resource("e1")
        )
        assert ontology.num_statements(Relation("bornIn")) == 0

    def test_remove_subclass_and_subproperty(self):
        ontology = Ontology("o")
        ontology.add_subclass(Resource("A"), Resource("B"))
        ontology.add_subproperty(Relation("r"), Relation("s"))
        assert ontology.remove_subclass(Resource("A"), Resource("B"))
        assert not ontology.remove_subclass(Resource("A"), Resource("B"))
        assert ontology.remove_subproperty(Relation("r"), Relation("s"))
        assert not list(ontology.subclass_edges())
        assert not list(ontology.subproperty_edges())

    def test_add_after_remove_round_trips(self, ontology):
        triple = Triple(Resource("e1"), Relation("bornIn"), Resource("Tupelo"))
        assert ontology.remove_triple(triple)
        assert ontology.add_triple(triple)
        assert ontology.has(triple.subject, triple.relation, triple.object)


class TestInvalidation:
    def test_functionality_invalidate_reports_changes(self):
        ontology = OntologyBuilder("o").fact("a", "r", "b").build()
        oracle = FunctionalityOracle(ontology)
        assert oracle.fun(Relation("r")) == 1.0
        ontology.add(Resource("a"), Relation("r"), Resource("c"))
        changes = oracle.invalidate([Relation("r")])
        assert changes[Relation("r")] == (1.0, 0.5)
        assert oracle.fun(Relation("r")) == 0.5

    def test_literal_index_add_and_discard(self):
        ontology = OntologyBuilder("o").value("e", "name", "Anna").build()
        index = LiteralIndex(ontology, IdentitySimilarity())
        assert index.candidates(Literal("Bea")) == ()
        assert index.add(Literal("Bea"))
        assert index.candidates(Literal("Bea")) == ((Literal("Bea"), 1.0),)
        assert index.discard(Literal("Bea"))
        assert index.candidates(Literal("Bea")) == ()
        assert not index.discard(Literal("Bea"))
        assert index.bucket_members("Anna") == {Literal("Anna")}


class TestDeltaCodec:
    def test_triple_round_trip(self):
        """The wire form round-trips the *canonical* statement (the
        codec orients along the forward relation; both orientations
        assert the same fact)."""
        triples = [
            Triple(Resource("a"), Relation("r"), Resource("b")),
            Triple(Resource("a"), Relation("r").inverse, Resource("b")),
            Triple(Resource("a"), Relation("name"), Literal("Anna", "string")),
        ]
        for triple in triples:
            assert triple_from_json(triple_to_json(triple)) == triple.canonical

    def test_delta_round_trip(self):
        add1, add2 = family_addition(3, 1)
        delta = Delta(add1=tuple(add1), add2=tuple(add2), remove1=(add1[0],))
        decoded = Delta.from_json(delta.to_json())
        assert decoded == delta
        assert decoded.size == delta.size

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {"middle": {}},
            {"left": []},
            {"left": {"patch": []}},
            {"left": {"add": [{"subject": "a"}]}},
            {"left": {"add": [{"subject": "a", "relation": "r", "object": "b",
                               "object_type": "uri"}]}},
        ],
    )
    def test_bad_payloads_rejected(self, payload):
        with pytest.raises(ValueError):
            Delta.from_json(payload)

    def test_delta_validation_is_all_or_nothing(self):
        """A rejected batch must not half-apply (the live service would
        otherwise serve scores violating the cold-equality guarantee)."""
        from repro.rdf.vocabulary import RDFS_SUBPROPERTYOF

        left, right = family_pair(2)
        facts_before = left.num_facts
        add1, _add2 = family_addition(2, 1)
        bad = Triple(Resource("a"), RDFS_SUBPROPERTYOF, Resource("b"))
        with pytest.raises(ValueError):
            apply_delta(left, right, Delta(add1=tuple(add1) + (bad,)))
        assert left.num_facts == facts_before  # nothing applied

    def test_schema_statement_with_literal_rejected(self):
        from repro.rdf.vocabulary import RDF_TYPE

        left, right = family_pair(2)
        bad = Triple(Resource("a"), RDF_TYPE, Literal("not-a-class"))
        with pytest.raises(ValueError):
            apply_delta(left, right, Delta(add2=(bad,)))

    def test_triple_from_json_non_string_fields(self):
        with pytest.raises(ValueError):
            triple_from_json({"subject": None, "relation": "r", "object": "b"})
        with pytest.raises(ValueError):
            triple_from_json({"subject": "a", "relation": "r", "object": None,
                              "object_type": "literal"})

    def test_inverse_oriented_literal_subject_triple(self):
        """An inverse-oriented statement with a literal subject is the
        same assertion as its canonical form and must invalidate the
        literal index like one (Triple docs allow literal subjects)."""
        left, right = family_pair(2)
        inverted = Triple(
            Literal("Fresh Label"), Relation("name").inverse, Resource("p0a")
        )
        effect = apply_delta(left, right, Delta(add1=(inverted,)))
        assert effect.applied_add == 1
        assert Literal("Fresh Label") in effect.added_literals1
        assert (Relation("name"), Resource("p0a"), Literal("Fresh Label")) in (
            effect.statements1
        )
        assert left.has(Resource("p0a"), Relation("name"), Literal("Fresh Label"))
        # The codec canonicalizes instead of crashing on the literal subject.
        encoded = triple_to_json(inverted)
        assert encoded["subject"] == "p0a"
        assert triple_from_json(encoded) == inverted.canonical

    def test_apply_delta_skips_noops_and_tracks_effect(self):
        left, right = family_pair(2)
        add1, add2 = family_addition(2, 1)
        delta = Delta(
            add1=tuple(add1) + tuple(add1[:1]),  # duplicate add is a no-op
            add2=tuple(add2),
            remove1=(Triple(Resource("nobody"), Relation("name"), Literal("x")),),
        )
        effect = apply_delta(left, right, delta)
        assert effect.applied_add == len(add1) + len(add2)
        assert effect.applied_remove == 0
        assert Relation("name") in effect.touched_relations1
        assert Literal("Person 2 Alpha") in effect.added_literals1
        assert Resource("p2a") in effect.touched_instances1


class TestStateStore:
    def test_save_load_round_trip(self, tmp_path):
        left, right = family_pair(4)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        path = save_state(service.state, tmp_path)
        assert path.exists()
        assert latest_version(tmp_path) == 0
        loaded = load_state(tmp_path)
        assert isinstance(loaded, AlignmentState)
        assert loaded.version == 0
        assert loaded.store.max_difference(service.state.store) == 0.0
        assert loaded.ontology1.num_facts == left.num_facts

    def test_versioned_snapshots(self, tmp_path):
        left, right = family_pair(4)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        service.snapshot(tmp_path)
        add1, add2 = family_addition(4, 1)
        service.apply_delta(Delta(add1=tuple(add1), add2=tuple(add2)))
        service.snapshot(tmp_path)
        assert latest_version(tmp_path) == 1
        old = load_state(tmp_path, version=0)
        new = load_state(tmp_path)
        assert old.version == 0 and new.version == 1
        assert new.ontology1.num_facts > old.ontology1.num_facts

    def test_resumed_state_keeps_serving_deltas(self, tmp_path):
        left, right = family_pair(4)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        service.snapshot(tmp_path)
        resumed = AlignmentService.from_state(load_state(tmp_path))
        add1, add2 = family_addition(4, 1)
        report = resumed.apply_delta(Delta(add1=tuple(add1), add2=tuple(add2)))
        assert report.converged and report.version == 1
        assert resumed.pair("p4a", "q4a")["probability"] > 0.9

    def test_resnapshot_same_version_is_atomic_replace(self, tmp_path):
        """The shutdown snapshot re-saves the current version over an
        existing file; it must go through write-then-rename so a crash
        cannot truncate a published snapshot."""
        left, right = family_pair(3)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        first = service.snapshot(tmp_path)
        second = service.snapshot(tmp_path)  # same version, overwrite
        assert first == second
        assert load_state(tmp_path).version == 0
        assert not list(tmp_path.glob("*.tmp"))  # temp files cleaned up

    def test_snapshot_is_durable_before_it_returns(self, tmp_path, monkeypatch):
        """WAL compaction deletes what a snapshot covers as soon as
        save_state returns: each file must be fsynced before it is
        renamed into place, and the directory after the last rename."""
        import os

        left, right = family_pair(3)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            return real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.stat(src).st_ino, os.path.basename(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = save_state(service.state, tmp_path)
        replaced = [event for event in events if event[0] == "replace"]
        assert [event[2] for event in replaced] == [path.name, "LATEST"]
        for event in replaced:
            synced = events.index(("fsync", event[1]))
            assert synced < events.index(event)
        assert events[-1] == ("fsync", tmp_path.stat().st_ino)

    def test_load_missing_state_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state(tmp_path)

    def test_malformed_latest_marker_falls_back_to_scan(self, tmp_path):
        left, right = family_pair(3)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        service.snapshot(tmp_path)
        # Simulate a crash that truncated the marker: resume must not brick.
        (tmp_path / "LATEST").write_text("")
        assert latest_version(tmp_path) == 0
        assert load_state(tmp_path).version == 0


class TestSnapshotResumeAfterOverlayWarmPass:
    """Restart mid-stream of deltas: a snapshot taken after overlay
    warm passes folded rows into the store in place must resume to a
    process that serves exactly what a cold realign of the final corpus
    computes."""

    def test_restart_mid_stream_matches_cold_realign(self, tmp_path):
        left, right = family_pair(8)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        # Two overlay-store warm passes land before the restart...
        for step in range(2):
            add1, add2 = family_addition(8 + step, 1)
            report = service.apply_delta(Delta(add1=tuple(add1), add2=tuple(add2)))
            assert report.converged
            assert report.pairs_touched > 0
        service.snapshot(tmp_path)
        # ...the process restarts from the snapshot...
        resumed = AlignmentService.from_state(load_state(tmp_path))
        # ...and the rest of the stream lands on the resumed process.
        for step in range(2, 4):
            add1, add2 = family_addition(8 + step, 1)
            report = resumed.apply_delta(Delta(add1=tuple(add1), add2=tuple(add2)))
            assert report.converged
        reference = align(*family_pair(12), ParisConfig(score_stationarity=True))
        assert resumed.state.store.max_difference(reference.instances) <= 1e-9
        for left_res, (right_res, probability) in reference.assignment12.items():
            payload = resumed.pair(left_res.name, right_res.name)
            assert payload["probability"] == pytest.approx(probability, abs=1e-9)
            assert payload["best_counterpart_of_left"]["right"] == right_res.name


class TestInvalidTermSyntax:
    """Deltas naming terms the N-Triples codec cannot round-trip are
    rejected up front, with the offending triple in the message."""

    @pytest.fixture()
    def service(self):
        left, right = family_pair(3)
        return AlignmentService.cold_start(left, right, ParisConfig())

    @pytest.mark.parametrize(
        "subject, relation, obj",
        [
            ("has space", "name", "q0a"),
            ("ok", "bad relation", "q0a"),
            ("ok", "name", "angle>bracket"),
            ("new\nline", "name", "q0a"),
            ("quote\"inside", "name", "q0a"),
        ],
    )
    def test_rejected_before_mutation(self, service, subject, relation, obj):
        bad = Triple(Resource(subject), Relation(relation), Resource(obj))
        facts_before = service.state.ontology1.num_facts
        with pytest.raises(ValueError) as excinfo:
            service.apply_delta(Delta(add1=(bad,)))
        message = str(excinfo.value)
        assert "N-Triples" in message
        # The 400 must list the offending triple.
        assert subject in message or relation in message or obj in message
        assert service.poisoned is None
        assert service.state.ontology1.num_facts == facts_before

    def test_literal_values_are_not_restricted(self, service):
        """Literals escape through the codec, so any content is fine."""
        odd = Triple(
            Resource("p0a"), Relation("note"), Literal('line\nbreak "quoted" <x>')
        )
        report = service.apply_delta(Delta(add1=(odd,)))
        assert report.applied_add == 1


class TestFailStop:
    """A failure after mutation started must poison the service: no
    more serving (or snapshotting) of a possibly inconsistent state."""

    def test_mid_delta_failure_poisons_service(self, tmp_path, monkeypatch):
        from repro.core.aligner import ParisAligner

        left, right = family_pair(3)
        service = AlignmentService.cold_start(left, right, ParisConfig())

        def explode(*_args, **_kwargs):
            raise OSError("worker pool died")

        monkeypatch.setattr(ParisAligner, "warm_align", explode)
        add1, add2 = family_addition(3, 1)
        with pytest.raises(OSError):
            service.apply_delta(Delta(add1=tuple(add1), add2=tuple(add2)))
        assert service.poisoned is not None
        assert service.health()["status"] == "inconsistent"
        for call in (
            lambda: service.pair("p0a", "q0a"),
            lambda: service.alignment(),
            lambda: service.snapshot(tmp_path),
            lambda: service.apply_delta(Delta()),
        ):
            with pytest.raises(RuntimeError):
                call()

    def test_validation_failure_does_not_poison(self):
        from repro.rdf.vocabulary import RDFS_SUBPROPERTYOF

        left, right = family_pair(3)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        bad = Triple(Resource("a"), RDFS_SUBPROPERTYOF, Resource("b"))
        with pytest.raises(ValueError):
            service.apply_delta(Delta(add1=(bad,)))
        assert service.poisoned is None
        assert service.health()["status"] == "ok"
        assert service.pair("p0a", "q0a")["probability"] > 0.9


class TestServiceQueries:
    @pytest.fixture(scope="class")
    def service(self):
        left, right = family_pair(6)
        return AlignmentService.cold_start(left, right, ParisConfig())

    def test_pair(self, service):
        payload = service.pair("p0a", "q0a")
        assert payload["probability"] > 0.9
        assert payload["best_counterpart_of_left"]["right"] == "q0a"
        assert payload["best_counterpart_of_right"]["left"] == "p0a"

    def test_unknown_pair(self, service):
        payload = service.pair("p0a", "qnope")
        assert payload["probability"] == 0.0
        assert "best_counterpart_of_right" not in payload

    def test_alignment_threshold(self, service):
        everything = service.alignment()
        strong = service.alignment(threshold=0.9)
        assert strong and len(strong) <= len(everything)
        assert all(probability >= 0.9 for _l, _r, probability in strong)

    def test_health(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["matched_left"] == 18  # 6 families x 3 entities


class TestHttpServer:
    @pytest.fixture()
    def server(self, tmp_path):
        left, right = family_pair(5)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        server = build_server(service, "127.0.0.1", 0, state_dir=tmp_path)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    @staticmethod
    def url(server, path):
        host, port = server.server_address[:2]
        return f"http://{host}:{port}{path}"

    @staticmethod
    def get_json(server, path):
        with urllib.request.urlopen(TestHttpServer.url(server, path), timeout=30) as r:
            return json.load(r)

    @staticmethod
    def post_json(server, path, payload):
        request = urllib.request.Request(
            TestHttpServer.url(server, path),
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            return json.load(response)

    def test_healthz(self, server):
        health = self.get_json(server, "/healthz")
        assert health["status"] == "ok" and health["version"] == 0
        assert health["role"] == "primary"

    def test_stats_without_stream_stack(self, server, tmp_path):
        """A server running without --watch/--wal still reports a full
        /stats payload: engine counters, the state's WAL offset and a
        zero queue depth — one shape for routers and monitors."""
        stats = self.get_json(server, "/stats")
        assert stats["role"] == "primary"
        assert stats["wal_offset"] == 0
        assert stats["deltas_applied"] == 0
        assert stats["ingest"] == {
            "queue_depth": 0,
            "streaming": False,
            "wal_appended": 0,
        }
        add1, add2 = family_addition(5, 1)
        self.post_json(
            server, "/delta", Delta(add1=tuple(add1), add2=tuple(add2)).to_json()
        )
        stats = self.get_json(server, "/stats")
        assert stats["deltas_applied"] == 1
        assert stats["pairs_touched_total"] > 0

    def test_delta_then_pair(self, server, tmp_path):
        add1, add2 = family_addition(5, 1)
        delta = Delta(add1=tuple(add1), add2=tuple(add2))
        report = self.post_json(server, "/delta", delta.to_json())
        assert report["version"] == 1 and report["converged"]
        pair = self.get_json(server, "/pair/p5a/q5a")
        assert pair["probability"] > 0.9
        # The delta triggered an automatic snapshot.
        assert latest_version(tmp_path) == 1

    def test_alignment_json_and_tsv(self, server):
        alignment = self.get_json(server, "/alignment?threshold=0.5")
        assert alignment["pairs"]
        with urllib.request.urlopen(
            self.url(server, "/alignment?threshold=0.5&format=tsv"), timeout=30
        ) as response:
            text = response.read().decode("utf-8")
        assert text.count("\n") == len(alignment["pairs"])
        assert "\t" in text.splitlines()[0]

    def test_snapshot_endpoint(self, server, tmp_path):
        payload = self.post_json(server, "/snapshot", {})
        assert "snapshot" in payload
        assert latest_version(tmp_path) == 0

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as error:
            self.get_json(server, "/nope")
        assert error.value.code == 404

    def test_bad_delta_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as error:
            self.post_json(server, "/delta", {"left": {"add": [{"subject": "x"}]}})
        assert error.value.code == 400

    def test_null_field_delta_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as error:
            self.post_json(
                server,
                "/delta",
                {"left": {"add": [{"subject": None, "relation": "r", "object": "b"}]}},
            )
        assert error.value.code == 400

    def test_unapplicable_delta_400_leaves_state_untouched(self, server):
        facts_before = self.get_json(server, "/healthz")["facts_left"]
        with pytest.raises(urllib.error.HTTPError) as error:
            self.post_json(
                server,
                "/delta",
                {"left": {"add": [
                    {"subject": "p0a", "relation": "extra", "object": "x"},
                    {"subject": "a", "relation": "rdfs:subPropertyOf", "object": "b"},
                ]}},
            )
        assert error.value.code == 400
        health = self.get_json(server, "/healthz")
        assert health["facts_left"] == facts_before
        assert health["version"] == 0

    def test_invalid_ntriples_term_400_lists_triple(self, server):
        """A delta naming a term with invalid N-Triples syntax gets a
        400 whose body names the offending triple — not a codec
        traceback much later."""
        with pytest.raises(urllib.error.HTTPError) as error:
            self.post_json(
                server,
                "/delta",
                {"left": {"add": [
                    {"subject": "bad uri", "relation": "extra", "object": "x"},
                ]}},
            )
        assert error.value.code == 400
        body = json.load(error.value)
        assert "N-Triples" in body["error"]
        assert "bad uri" in body["error"]
        health = self.get_json(server, "/healthz")
        assert health["status"] == "ok" and health["version"] == 0

    def test_bad_threshold_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as error:
            self.get_json(server, "/alignment?threshold=abc")
        assert error.value.code == 400

    def test_snapshot_every_zero_defers_to_explicit_snapshot(self, tmp_path):
        left, right = family_pair(3)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        server = build_server(
            service, "127.0.0.1", 0, state_dir=tmp_path, snapshot_every=0
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            add1, add2 = family_addition(3, 1)
            delta = Delta(add1=tuple(add1), add2=tuple(add2))
            report = self.post_json(server, "/delta", delta.to_json())
            assert report["version"] == 1
            assert latest_version(tmp_path) is None  # no automatic snapshot
            self.post_json(server, "/snapshot", {})
            assert latest_version(tmp_path) == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
