"""``repro lint --changed``: the git-scoped pre-commit loop.

Runs against a throwaway git repository so the tests are hermetic:
``changed_files`` must list modified + untracked files (and fail
loudly on a bad ref), ``restrict_to_changed`` must intersect them with
the lint targets, and the CLI must keep the exit-code contract (0 on
an empty intersection, 2 on git failure).
"""

import pathlib
import subprocess
import textwrap

import pytest

from repro.cli import main
from repro.lint import cli as lint_cli
from repro.lint.cli import ChangedFilesError, changed_files, restrict_to_changed

BAD_SOURCE = """\
import random

def jitter():
    return random.random()
"""


def _git(cwd, *argv):
    subprocess.run(
        ["git", *argv], cwd=cwd, check=True, capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(cwd), "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


@pytest.fixture
def repo(tmp_path):
    """A git repo shaped like the lint root, with one committed file."""
    _git(tmp_path, "init", "-q")
    committed = tmp_path / "repro" / "core" / "x.py"
    committed.parent.mkdir(parents=True)
    committed.write_text("def f():\n    return 1\n")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


class TestChangedFiles:
    def test_modified_and_untracked_listed(self, repo):
        (repo / "repro" / "core" / "x.py").write_text("def f():\n    return 2\n")
        untracked = repo / "repro" / "core" / "y.py"
        untracked.write_text("def g():\n    return 3\n")
        listed = changed_files("HEAD", cwd=repo)
        names = sorted(path.name for path in listed)
        assert names == ["x.py", "y.py"]
        assert all(path.is_absolute() for path in listed)

    def test_clean_tree_lists_nothing(self, repo):
        assert changed_files("HEAD", cwd=repo) == []

    def test_bad_ref_raises(self, repo):
        with pytest.raises(ChangedFilesError, match="git diff"):
            changed_files("no-such-ref", cwd=repo)

    def test_outside_a_work_tree_raises(self, tmp_path):
        bare = tmp_path / "not-a-repo"
        bare.mkdir()
        with pytest.raises(ChangedFilesError):
            changed_files("HEAD", cwd=bare)


class TestRestrictToChanged:
    def test_filters_by_root_and_suffix(self, tmp_path):
        root = tmp_path / "repro"
        inside = root / "core" / "a.py"
        inside.parent.mkdir(parents=True)
        inside.write_text("x = 1\n")
        not_python = root / "core" / "notes.md"
        not_python.write_text("hi\n")
        outside = tmp_path / "elsewhere" / "b.py"
        outside.parent.mkdir(parents=True)
        outside.write_text("y = 2\n")
        deleted = root / "core" / "gone.py"  # changed but no longer on disk
        selected = restrict_to_changed(
            [root], [inside, not_python, outside, deleted]
        )
        assert selected == [inside]

    def test_exact_file_target_matches_itself(self, tmp_path):
        target = tmp_path / "only.py"
        target.write_text("z = 3\n")
        assert restrict_to_changed([target], [target]) == [target]


class TestChangedCli:
    @pytest.fixture
    def sandbox(self, repo, monkeypatch):
        """CLI runner rooted at the throwaway repo (cwd + lint root)."""
        monkeypatch.setattr(lint_cli, "_DEFAULT_ROOT", repo)
        monkeypatch.chdir(repo)

        def run(*extra):
            return main(["lint", "--path", str(repo / "repro"), *extra])

        return run

    def test_empty_intersection_exits_zero(self, sandbox, capsys):
        assert sandbox("--changed") == 0
        assert "0 files, 0 error(s)" in capsys.readouterr().out

    def test_changed_file_with_violation_exits_one(self, repo, sandbox):
        (repo / "repro" / "core" / "x.py").write_text(
            textwrap.dedent(BAD_SOURCE)
        )
        assert sandbox("--changed") == 1

    def test_only_changed_files_are_linted(self, repo, sandbox):
        # The committed violation is untouched; only the new clean file
        # differs from HEAD, so the gate stays green.
        dirty = repo / "repro" / "core" / "x.py"
        dirty.write_text(textwrap.dedent(BAD_SOURCE))
        _git(repo, "add", ".")
        _git(repo, "commit", "-q", "-m", "grandfathered violation")
        clean = repo / "repro" / "core" / "fresh.py"
        clean.write_text("def h():\n    return 4\n")
        assert sandbox("--changed") == 0

    def test_explicit_ref_widens_the_diff(self, repo, sandbox):
        dirty = repo / "repro" / "core" / "x.py"
        dirty.write_text(textwrap.dedent(BAD_SOURCE))
        _git(repo, "add", ".")
        _git(repo, "commit", "-q", "-m", "violation on top")
        assert sandbox("--changed") == 0  # clean vs HEAD...
        assert sandbox("--changed=HEAD~1") == 1  # ...dirty vs the parent

    def test_git_failure_exits_two(self, sandbox, capsys):
        assert sandbox("--changed=no-such-ref") == 2
        assert "--changed" in capsys.readouterr().err
