"""Consistency between the documentation and the code.

DESIGN.md promises a bench per experiment and EXPERIMENTS.md reports them;
these tests keep those promises honest as the code evolves.
"""

import argparse
import builtins
import importlib
import os
import re

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(name):
    with open(os.path.join(REPO, name)) as handle:
        return handle.read()


def _doc_files():
    """README, DESIGN, EXPERIMENTS, ``docs/*.md`` and the verify skill."""
    names = ["README.md", "DESIGN.md", "EXPERIMENTS.md",
             os.path.join(".claude", "skills", "verify", "SKILL.md")]
    names += [
        os.path.join("docs", name)
        for name in sorted(os.listdir(os.path.join(REPO, "docs")))
        if name.endswith(".md")
    ]
    return [name for name in names if os.path.exists(os.path.join(REPO, name))]


def _python_sources(tops):
    for top in tops:
        for root, _dirs, files in os.walk(os.path.join(REPO, top)):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(root, name)) as handle:
                        yield handle.read()


class TestDesignIndex:
    def test_every_indexed_bench_exists(self):
        design = _read("DESIGN.md")
        referenced = set(re.findall(r"benchmarks/(bench_[a-z0-9_]+\.py)", design))
        assert referenced, "DESIGN.md no longer references any bench"
        for bench in referenced:
            assert os.path.exists(
                os.path.join(REPO, "benchmarks", bench)
            ), f"DESIGN.md references missing {bench}"

    def test_every_bench_is_indexed(self):
        design = _read("DESIGN.md")
        on_disk = {
            name
            for name in os.listdir(os.path.join(REPO, "benchmarks"))
            if name.startswith("bench_") and name.endswith(".py")
        }
        indexed = set(re.findall(r"benchmarks/(bench_[a-z0-9_]+\.py)", design))
        undocumented = on_disk - indexed
        assert not undocumented, f"benches missing from DESIGN.md: {undocumented}"

    def test_indexed_modules_exist(self):
        """Every backticked ``pkg/x.py`` path in DESIGN.md exists under
        ``src/repro/`` (``policies/pdp.py``), ``src/``
        (``repro/cli.py``) or the repo root (``benchmarks/...``)."""
        design = _read("DESIGN.md")
        modules = set(re.findall(r"`((?:[a-z_0-9]+/)+[a-z_0-9]+\.py)`", design))
        assert "policies/pdp.py" in modules
        roots = [os.path.join(REPO, "src", "repro"), os.path.join(REPO, "src"), REPO]
        for module in modules:
            assert any(
                os.path.exists(os.path.join(root, module)) for root in roots
            ), f"DESIGN.md references missing module {module}"


class TestExperimentsReport:
    def test_every_figure_covered(self):
        experiments = _read("EXPERIMENTS.md")
        for figure in ("Figure 1", "Figure 4", "Figure 10", "Figure 11",
                       "Figure 12", "Figure 13", "Section 3.6", "Section 2.6"):
            assert figure in experiments, f"{figure} missing from EXPERIMENTS.md"

    def test_benches_named_in_report_exist(self):
        experiments = _read("EXPERIMENTS.md")
        for bench in set(re.findall(r"`(bench_[a-z0-9_]+\.py)`", experiments)):
            assert os.path.exists(os.path.join(REPO, "benchmarks", bench)), bench


class TestReadme:
    def test_example_scripts_exist(self):
        readme = _read("README.md")
        for script in set(re.findall(r"`([a-z_0-9]+\.py)`", readme)):
            in_examples = os.path.exists(os.path.join(REPO, "examples", script))
            in_benchmarks = os.path.exists(
                os.path.join(REPO, "benchmarks", script)
            )
            assert in_examples or in_benchmarks, (
                f"README references missing {script}"
            )

    def test_quickstart_code_runs(self):
        """The README quickstart snippet must stay executable."""
        readme = _read("README.md")
        match = re.search(r"```python\n(.*?)```", readme, re.S)
        assert match, "no python quickstart block in README"
        code = match.group(1)
        # Shrink the workload so this stays a unit test.
        code = code.replace("n=100_000", "n=5_000")
        namespace: dict = {}
        exec(compile(code, "README-quickstart", "exec"), namespace)


class TestPaperVectorsDocumented:
    def test_design_mentions_substitutions(self):
        design = _read("DESIGN.md")
        assert "Substitutions" in design
        assert "SPEC CPU 2006" in design

    def test_citation_file_has_doi(self):
        citation = _read("CITATION.cff")
        assert "10.1145/2540708.2540733" in citation


class TestDocumentedEnvVars:
    """Every ``REPRO_*`` variable the docs or the Makefile name is read by
    the code, so a deleted variable's documentation fails here."""

    CODE_DIRS = ("src", "scripts", "benchmarks")

    def _documented(self):
        found = {}
        for name in _doc_files() + ["Makefile"]:
            for var in re.findall(r"\bREPRO_[A-Z_]+\b", _read(name)):
                found.setdefault(var, name)
        return found

    def _read_by_code(self):
        # A variable counts as read where it appears as a string literal.
        literal = re.compile(r"""["'](REPRO_[A-Z_]+)["']""")
        seen = set()
        for source in _python_sources(self.CODE_DIRS):
            seen.update(literal.findall(source))
        return seen

    def test_documented_variables_are_read(self):
        documented = self._documented()
        assert documented, "the docs no longer name any REPRO_* variable"
        stale = {
            var: doc for var, doc in documented.items()
            if var not in self._read_by_code()
        }
        assert not stale, f"documented but read by no code: {stale}"


class TestDocumentedFlags:
    """Every ``--flag`` the docs name is an option some script defines."""

    CODE_DIRS = ("src", "scripts", "benchmarks", "examples", "perfbench")
    # Flags of the tools the docs drive, not of this repository.
    TOOL_FLAGS = {"--benchmark-only", "--no-build-isolation"}
    # A trailing ``*`` (``--x-*``) names a family of flags by its prefix.
    FLAG = re.compile(r"(?<![\w-])--[a-z0-9][a-z0-9-]*\*?")

    def _defined(self):
        # A flag counts as defined where it appears as a string literal.
        literal = re.compile(r"""["'](--[a-z0-9][a-z0-9-]*)["']""")
        seen = set()
        for source in _python_sources(self.CODE_DIRS):
            seen.update(literal.findall(source))
        return seen

    def test_documented_flags_are_defined(self):
        found = {}
        for doc in _doc_files():
            for flag in self.FLAG.findall(_read(doc)):
                found.setdefault(flag, doc)
        assert found, "the docs no longer name any flag"
        defined = self._defined() | self.TOOL_FLAGS
        stale = {
            flag: doc for flag, doc in found.items()
            if not (
                any(d.startswith(flag[:-1]) for d in defined)
                if flag.endswith("*") else flag in defined
            )
        }
        assert not stale, f"documented but defined nowhere: {stale}"


class TestCodeNames:
    """Every class or function name the docs put in backticks exists."""

    CODE_DIRS = ("src", "scripts", "benchmarks", "tests")
    # A backticked reference: an optional pytest node prefix, a dotted
    # name, an optional call.  Other spans (shell lines, placeholders such
    # as ``error=<ExcType>``) are prose, not names.
    REFERENCE = re.compile(r"(?:[\w/.-]+::)?([A-Za-z_][\w.:]*)(?:\(.*\))?")
    # CamelCase with two or more capitalised parts (an acronym counts as
    # one part): ``BatchSimulator``, ``DGIPPRPolicy``; not ``Trace``.
    CAMEL = re.compile(r"(?:[A-Z]+(?![a-z])|[A-Z][a-z0-9]+){2,}")

    def _checked(self, name):
        camel = self.CAMEL.fullmatch(name) and re.search("[a-z]", name)
        return bool(camel) or name.startswith(("check_", "simulate_"))

    def _documented(self):
        found = {}
        for doc in _doc_files():
            for span in re.findall(r"`([^`\n]+)`", _read(doc)):
                match = self.REFERENCE.fullmatch(span)
                if match is None:
                    continue
                for name in re.split(r"[.:]+", match.group(1)):
                    if self._checked(name):
                        found.setdefault(name, doc)
        return found

    def _defined(self):
        definition = re.compile(r"^\s*(?:async\s+)?(?:def|class)\s+(\w+)", re.M)
        names = set()
        for source in _python_sources(self.CODE_DIRS):
            names.update(definition.findall(source))
        return names

    def test_documented_names_are_defined(self):
        documented = self._documented()
        assert documented, "the docs no longer name any class or function"
        defined = self._defined()
        stale = {
            name: doc for name, doc in documented.items()
            if name not in defined and not hasattr(builtins, name)
        }
        assert not stale, f"documented but defined nowhere: {stale}"

    # A whole backticked span that is a dotted path into the package, with
    # an optional empty call: ``repro.obs.spans``, ``repro.kernels.x()``.
    MODULE_PATH = re.compile(r"(repro(?:\.[A-Za-z_]\w*)+)(?:\(\))?")

    @staticmethod
    def _resolves(path):
        """Whether ``path`` imports as a module or names an attribute."""
        parts = path.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                target = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            for attr in parts[cut:]:
                if not hasattr(target, attr):
                    return False
                target = getattr(target, attr)
            return True
        return False

    def test_documented_module_paths_resolve(self):
        found = {}
        for doc in _doc_files():
            for span in re.findall(r"`([^`\n]+)`", _read(doc)):
                match = self.MODULE_PATH.fullmatch(span)
                if match is not None:
                    found.setdefault(match.group(1), doc)
        assert found, "the docs no longer name any repro.<...> path"
        stale = {
            path: doc for path, doc in found.items()
            if not self._resolves(path)
        }
        assert not stale, f"documented but does not resolve: {stale}"


class TestDocumentedCommands:
    """Every ``repro`` command and ``make`` target the docs show exists."""

    # A command in a backticked span, or a line of a fenced block (an
    # optional ``$ `` prompt first).  Prose ("a repro committed to") and
    # ``from repro import`` sit outside both, or do not start the line.
    FENCE = re.compile(r"```[^\n]*\n(.*?)```", re.S)

    def _commands(self, program="repro"):
        found = {}
        for doc in _doc_files():
            text = _read(doc)
            lines = re.findall(r"`([^`\n]+)`", self.FENCE.sub("", text))
            for block in self.FENCE.findall(text):
                lines += [re.sub(r"^\$\s+", "", line.strip())
                          for line in block.splitlines()]
            for line in lines:
                if re.match(rf"{program} \S", line):
                    found.setdefault(line, doc)
        return found

    @staticmethod
    def _subcommands(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                return action.choices
        return {}

    def test_documented_commands_exist(self):
        from repro.cli import build_parser

        commands = self._commands()
        assert commands, "the docs no longer show any repro command"
        top = self._subcommands(build_parser())
        obs = self._subcommands(top["obs"])
        stale = {}
        for command, doc in commands.items():
            words = command.split()
            if words[1] not in top:
                stale[command] = doc
            elif words[1] == "obs" and len(words) > 2 and words[2] not in obs:
                stale[command] = doc
        assert not stale, f"documented but no such subcommand: {stale}"

    def test_documented_make_targets_exist(self):
        commands = self._commands("make")
        assert commands, "the docs no longer show any make target"
        targets = set(re.findall(r"^([\w-]+):", _read("Makefile"), re.M))
        stale = {}
        for command, doc in commands.items():
            # ``make a b  # comment``: every word before the comment.
            if not set(command.split("#")[0].split()[1:]) <= targets:
                stale[command] = doc
        assert not stale, f"documented but no such make target: {stale}"
