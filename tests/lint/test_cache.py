"""The ``--cache-dir`` scan cache: identity, invalidation, resilience."""

import json
import shutil

import repro.lint.cache as cache_module
from repro.lint import LintEngine, build_rules, render_json
from repro.lint.cache import ScanCache, cache_token


def make_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "clean.py").write_text("__all__ = []\n")
    (corpus / "dirty.py").write_text("def f(x=[]):\n    return x\n")
    return corpus


def run_cached(corpus, cache_dir, jobs=1):
    engine = LintEngine(
        rules=build_rules(), root=corpus.parent, jobs=jobs, cache_dir=cache_dir
    )
    return engine.run([corpus])


def comparable(report):
    document = json.loads(render_json(report))
    document.pop("wall_seconds")
    document.pop("cache_hits")
    return document


class TestWarmRuns:
    def test_warm_run_is_byte_identical_and_all_hits(self, tmp_path):
        corpus = make_corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        cold = run_cached(corpus, cache_dir)
        warm = run_cached(corpus, cache_dir)
        assert cold.cache_hits == 0
        assert warm.cache_hits == 2
        assert comparable(cold) == comparable(warm)

    def test_editing_one_file_invalidates_only_it(self, tmp_path):
        corpus = make_corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        run_cached(corpus, cache_dir)
        (corpus / "clean.py").write_text("__all__ = ['x']\n\nx = 1\n")
        warm = run_cached(corpus, cache_dir)
        assert warm.cache_hits == 1

    def test_cache_composes_with_jobs_fanout(self, tmp_path):
        corpus = make_corpus(tmp_path)
        for index in range(4):
            (corpus / f"extra{index}.py").write_text("__all__ = []\n")
        cache_dir = tmp_path / "cache"
        cold = run_cached(corpus, cache_dir, jobs=3)
        warm = run_cached(corpus, cache_dir, jobs=3)
        assert warm.cache_hits == 6
        assert comparable(cold) == comparable(warm)

    def test_uncached_run_reports_zero_hits(self, tmp_path):
        corpus = make_corpus(tmp_path)
        report = run_cached(corpus, cache_dir=None)
        assert report.cache_hits == 0


class TestInvalidation:
    def test_rule_set_change_invalidates(self, tmp_path):
        corpus = make_corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        run_cached(corpus, cache_dir)
        engine = LintEngine(
            rules=build_rules(only=["RPR402"]),
            enabled={"RPR402"},
            root=tmp_path,
            cache_dir=cache_dir,
        )
        report = engine.run([corpus])
        assert report.cache_hits == 0  # different rule set, different keys

    def test_source_digest_change_invalidates(self, tmp_path, monkeypatch):
        # Entries written under one analysis-source digest are all
        # misses under another: a changed extractor can never be
        # served the summaries its predecessor recorded.
        corpus = make_corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        cold = run_cached(corpus, cache_dir)
        assert run_cached(corpus, cache_dir).cache_hits == cold.files_scanned
        monkeypatch.setattr(cache_module, "source_digest", lambda: "0" * 64)
        warm = run_cached(corpus, cache_dir)
        assert warm.cache_hits == 0
        assert comparable(warm) == comparable(cold)

    def test_source_digest_tracks_the_analysis_source(self, tmp_path, monkeypatch):
        repro_dir = tmp_path / "repro"
        shutil.copytree(cache_module._REPRO / "lint", repro_dir / "lint")
        shutil.copy(cache_module._REPRO / "units.py", repro_dir / "units.py")
        monkeypatch.setattr(cache_module, "_REPRO", repro_dir)
        digests = []
        try:
            for edited in (None, "lint/dimflow/extract.py", "units.py"):
                if edited is not None:
                    path = repro_dir / edited
                    path.write_text(path.read_text() + "\n# edited\n")
                cache_module.source_digest.cache_clear()
                digests.append(cache_module.source_digest())
        finally:
            cache_module.source_digest.cache_clear()
        assert len(set(digests)) == 3

    def test_token_folds_source_rules_and_summary_flag(self):
        rules = build_rules(only=["RPR402"])
        base = cache_token(rules, {"RPR402"}, need_summary=True)
        assert cache_token(rules, {"RPR402"}, need_summary=False) != base
        assert cache_token(rules, {"RPR402", "RPR401"}, True) != base
        assert f"src={cache_module.source_digest()}" in base


class TestResilience:
    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        corpus = make_corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        run_cached(corpus, cache_dir)
        for entry in cache_dir.glob("*.scan"):
            entry.write_bytes(b"not a pickle")
        warm = run_cached(corpus, cache_dir)
        assert warm.cache_hits == 0
        assert comparable(warm) == comparable(run_cached(corpus, None))

    def test_non_filescan_payload_is_a_miss(self, tmp_path):
        cache = ScanCache(tmp_path / "cache", token="t")
        key = cache.key("m.py", b"content")
        (tmp_path / "cache" / f"{key}.scan").write_bytes(
            __import__("pickle").dumps({"not": "a FileScan"})
        )
        assert cache.load(key) is None
        assert cache.hits == 0
