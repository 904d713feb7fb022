"""Repository-integrity checks: docs, benchmarks, and registry agree."""

import os
import re
import subprocess

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(name):
    with open(os.path.join(REPO_ROOT, name)) as fh:
        return fh.read()


class TestDocsReferenceRealFiles:
    def test_design_bench_targets_exist(self):
        design = _read("DESIGN.md")
        for match in re.findall(r"benchmarks/test_\w+\.py", design):
            assert os.path.exists(os.path.join(REPO_ROOT, match)), match

    def test_readme_examples_exist(self):
        readme = _read("README.md")
        for match in re.findall(r"examples/\w+\.py", readme):
            assert os.path.exists(os.path.join(REPO_ROOT, match)), match

    def test_experiments_mentions_every_figure(self):
        experiments = _read("EXPERIMENTS.md")
        for heading in ("Figure 1", "Figure 2", "Tables I and II", "Table III",
                        "Figure 6", "Figures 7-10", "Table IV", "Figure 11",
                        "Figures 12-15", "Section IV-E", "Figure 16"):
            assert heading in experiments, heading


class TestBenchmarkCoverage:
    #: One benchmark file per evaluation artifact of the paper.
    EXPECTED = [
        "test_fig01_timeliness_oracle.py",
        "test_fig02_accuracy_vs_distance.py",
        "test_tab1_tab2_compression.py",
        "test_fig06_ipc_vs_storage.py",
        "test_fig07_ipc_curves.py",
        "test_fig08_missrate_curves.py",
        "test_fig09_coverage.py",
        "test_fig10_accuracy.py",
        "test_tab4_energy.py",
        "test_fig11_ablation.py",
        "test_fig12_compression_formats.py",
        "test_fig13_avg_destinations.py",
        "test_fig14_bbsize_source.py",
        "test_fig15_bbsize_dest.py",
        "test_sec4e_physical.py",
        "test_fig16_cloudsuite.py",
    ]

    @pytest.mark.parametrize("filename", EXPECTED)
    def test_bench_exists(self, filename):
        assert os.path.exists(os.path.join(REPO_ROOT, "benchmarks", filename))


class TestRegistryDocsAgree:
    def test_storage_reference_names_resolve(self):
        from repro.analysis.storage import paper_reference_storage_kb
        from repro.prefetchers.registry import available_prefetchers

        names = set(available_prefetchers())
        for name in paper_reference_storage_kb():
            assert name in names, name

    def test_fig6_config_names_resolve(self):
        from repro.analysis.experiments import PSEUDO_CONFIGS
        from repro.analysis.figures import CURVE_CONFIGS, FIG6_CONFIGS, TAB4_CONFIGS
        from repro.prefetchers.registry import available_prefetchers

        valid = set(available_prefetchers()) | set(PSEUDO_CONFIGS)
        for group in (FIG6_CONFIGS, CURVE_CONFIGS, TAB4_CONFIGS):
            for name in group:
                assert name in valid, name

    def test_every_public_module_has_docstring(self):
        import importlib
        import pkgutil

        import repro

        for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
            if module_info.name.endswith("__main__"):
                continue  # importing it would run the CLI
            module = importlib.import_module(module_info.name)
            assert module.__doc__, f"{module_info.name} lacks a docstring"


class TestTrackedFiles:
    def test_no_bytecode_tracked(self):
        """Compiled ``.pyc`` files are build output (ignored by the root
        ``.gitignore``), never source."""
        try:
            listing = subprocess.run(
                ["git", "ls-files", "--", "*.pyc"],
                cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
            )
        except OSError:
            pytest.skip("git is not installed")
        if listing.returncode != 0:
            pytest.skip("not a git checkout")
        assert listing.stdout.split() == []
