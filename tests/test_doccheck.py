"""Doc health is part of tier-1: broken cross-links, examples that no
longer run, and documented command lines the CLI no longer accepts fail
the suite, not just `make docs-check`."""

from __future__ import annotations

import os
import re
import shlex
import textwrap

import pytest

from repro._util import doccheck
from repro.cli import build_parser

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestThisRepo:
    def test_repo_docs_and_examples_are_healthy(self, capsys):
        assert doccheck.main(["--root", REPO_ROOT]) == 0
        out = capsys.readouterr().out
        assert "doccheck: OK" in out

    def test_readme_and_docs_are_discovered(self):
        found = [os.path.basename(p) for p in doccheck.markdown_files(REPO_ROOT)]
        assert "README.md" in found
        assert "architecture.md" in found
        assert "cli.md" in found

    def test_examples_are_discovered(self):
        names = [os.path.basename(p) for p in doccheck.example_files(REPO_ROOT)]
        assert "quickstart.py" in names
        assert "live_serving.py" in names

    def test_examples_run(self, capsys):
        assert doccheck.main(["--root", REPO_ROOT, "--run"]) == 0
        assert "doccheck: OK" in capsys.readouterr().out


#: Tokens that end one command of a shell line.
_SHELL_OPERATORS = {"|", "||", "&", "&&", ";", ">", ">>", "<"}


def _documented_commands(root):
    """``(file, argv)`` for every ``efd ...`` (or ``python -m repro ...``)
    command inside a ```` ```sh ```` fence of README.md and docs/*.md,
    with ``\\`` continuations joined and comments dropped."""
    commands = []
    for path in doccheck.markdown_files(root):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
            for line in block.replace("\\\n", " ").splitlines():
                tokens = shlex.split(line, comments=True)
                for i, token in enumerate(tokens):
                    if token == "efd":
                        start = i + 1
                    elif tokens[i:i + 3] == ["python", "-m", "repro"]:
                        start = i + 3
                    else:
                        continue
                    argv = []
                    for arg in tokens[start:]:
                        if arg in _SHELL_OPERATORS:
                            break
                        argv.append(arg)
                    commands.append((os.path.relpath(path, root), argv))
                    break
    return commands


class TestDocumentedCommandLines:
    def test_every_documented_command_line_parses(self):
        parser = build_parser()
        commands = _documented_commands(REPO_ROOT)
        assert len(commands) > 50  # the scan really found the fences
        bad = []
        for path, argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                bad.append(f"{path}: efd {' '.join(argv)}")
        assert bad == []

    def test_stale_option_is_flagged(self, tmp_path):
        root = str(tmp_path)
        with open(os.path.join(root, "README.md"), "w") as fh:
            fh.write(textwrap.dedent("""\
                ```sh
                efd engine selftest --shards 4   # fine
                cat s.jsonl | efd serve --demo \\
                    --no-such-option 4
                ```
            """))
        commands = _documented_commands(root)
        assert [argv for _, argv in commands] == [
            ["engine", "selftest", "--shards", "4"],
            ["serve", "--demo", "--no-such-option", "4"],
        ]
        with pytest.raises(SystemExit):
            build_parser().parse_args(commands[1][1])


class TestSlugs:
    @pytest.mark.parametrize("heading, slug", [
        ("Install", "install"),
        ("Package map", "package-map"),
        ("`efd serve` — async live-session recognition",
         "efd-serve--async-live-session-recognition"),
        ("Doc and example health: `python -m repro._util.doccheck`",
         "doc-and-example-health-python--m-repro_utildoccheck"),
    ])
    def test_github_slug(self, heading, slug):
        assert doccheck.github_slug(heading) == slug


class TestLinkChecking:
    def _write(self, root, rel, text):
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(textwrap.dedent(text))

    def test_clean_tree_passes(self, tmp_path):
        root = str(tmp_path)
        self._write(root, "README.md", """\
            # Top
            See [docs](docs/guide.md) and [section](docs/guide.md#deep-dive).
            External [link](https://example.com/x) is not fetched.
        """)
        self._write(root, "docs/guide.md", """\
            # Guide
            ## Deep dive
            Back to [readme](../README.md#top).
        """)
        assert doccheck.check_links(root) == []

    def test_broken_file_link_reported(self, tmp_path):
        root = str(tmp_path)
        self._write(root, "README.md", "[gone](docs/missing.md)\n")
        problems = doccheck.check_links(root)
        assert len(problems) == 1
        assert "missing.md" in problems[0]

    def test_broken_anchor_reported(self, tmp_path):
        root = str(tmp_path)
        self._write(root, "README.md", "[x](docs/guide.md#nope)\n")
        self._write(root, "docs/guide.md", "# Only heading\n")
        problems = doccheck.check_links(root)
        assert len(problems) == 1
        assert "#nope" in problems[0]

    def test_links_inside_code_fences_ignored(self, tmp_path):
        root = str(tmp_path)
        self._write(root, "README.md", """\
            # Top
            ```
            [not a real link](nowhere.md)
            ```
        """)
        assert doccheck.check_links(root) == []


class TestExampleChecking:
    def _example(self, root, name, source):
        path = os.path.join(root, "examples", name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(textwrap.dedent(source))
        return path

    def test_good_example_passes(self, tmp_path):
        path = self._example(str(tmp_path), "ok.py", """\
            from repro import EFDRecognizer
            import repro.serve
        """)
        assert doccheck.check_example_imports(path) == []

    def test_stale_name_reported(self, tmp_path):
        path = self._example(str(tmp_path), "stale.py", """\
            from repro import ThisWasRenamedLongAgo
        """)
        problems = doccheck.check_example_imports(path)
        assert len(problems) == 1
        assert "ThisWasRenamedLongAgo" in problems[0]

    def test_missing_module_reported(self, tmp_path):
        path = self._example(str(tmp_path), "gone.py", """\
            import repro.no_such_subsystem
        """)
        problems = doccheck.check_example_imports(path)
        assert len(problems) == 1
        assert "no_such_subsystem" in problems[0]

    def test_syntax_error_reported(self, tmp_path):
        path = self._example(str(tmp_path), "broken.py", "def nope(:\n")
        problems = doccheck.check_example_imports(path)
        assert len(problems) == 1
        assert "does not compile" in problems[0]
