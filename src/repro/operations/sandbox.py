"""Sandboxed execution of post-processing codes.

The paper runs archived/uploaded codes through a dynamically created batch
file that (1) changes into a per-invocation temporary directory named
after the servlet session, (2) unpacks the code archive, and (3) invokes a
second interpreter under a security manager ("a special secure application
class ... declares appropriate security restrictions and then dynamically
loads and runs the user's uploaded code").

Here the uploaded/archived codes are Python sources standing in for the
Java classes.  :class:`Sandbox` provides the equivalent guarantees:

* a fresh working directory per invocation (session + serial number),
* file access confined to that directory — the injected ``open`` resolves
  relative names inside the working directory and refuses to escape it
  (the paper's "code must write output to relative filenames"),
* imports restricted to a harmless whitelist,
* dangerous builtins (``exec``/``eval``/``__import__``/attribute
  introspection helpers) removed,
* an execution *step budget* enforced via ``sys.settrace`` so runaway
  uploads cannot wedge the archive.

The code contract matches the paper's: the initial executable receives the
dataset's filename (injected as ``INPUT_FILENAME``) plus the user-supplied
parameters (``PARAMS``) and writes any output to relative filenames.
"""

from __future__ import annotations

import builtins
import itertools
import os
import shutil
import sys
import threading
from typing import Any

from repro.errors import OperationExecutionError, SandboxViolation

__all__ = ["SandboxPolicy", "Sandbox", "SandboxResult"]

#: modules uploaded code may import — numeric/stdlib helpers only
SAFE_MODULES = frozenset({
    "math", "struct", "array", "json", "statistics", "itertools",
    "functools", "collections", "zlib", "base64", "numpy",
})

_SAFE_BUILTIN_NAMES = (
    "abs", "all", "any", "bin", "bool", "bytearray", "bytes", "chr",
    "dict", "divmod", "enumerate", "filter", "float", "format",
    "frozenset", "hash", "hex", "int", "isinstance", "issubclass",
    "iter", "len", "list", "map", "max", "min", "next", "oct", "ord",
    "pow", "print", "range", "repr", "reversed", "round", "set",
    "slice", "sorted", "str", "sum", "tuple", "zip", "ValueError",
    "TypeError", "KeyError", "IndexError", "ZeroDivisionError",
    "ArithmeticError", "Exception", "StopIteration", "RuntimeError",
)

#: the working directory is process-wide; one run at a time holds it from
#: ``chdir`` into its workdir until the previous directory is restored
_CWD_LOCK = threading.Lock()


class SandboxPolicy:
    """Tunable restrictions for one class of code.

    ``trusted`` relaxes the import whitelist and step budget — used for the
    archive's own *operations* (reviewed codes archived by site staff), in
    contrast to arbitrary user uploads.
    """

    def __init__(
        self,
        allowed_modules: frozenset[str] = SAFE_MODULES,
        max_steps: int = 20_000_000,
        max_output_bytes: int = 64 * 1024 * 1024,
        trusted: bool = False,
    ) -> None:
        self.allowed_modules = allowed_modules
        self.max_steps = max_steps
        self.max_output_bytes = max_output_bytes
        self.trusted = trusted

    @classmethod
    def for_uploads(cls) -> "SandboxPolicy":
        """The stricter policy for user-uploaded code."""
        return cls(max_steps=5_000_000, max_output_bytes=16 * 1024 * 1024)

    @classmethod
    def for_operations(cls) -> "SandboxPolicy":
        """The policy for archive-curated operations."""
        return cls(trusted=True)


class SandboxResult:
    """What came out of one sandboxed run."""

    def __init__(self, outputs: dict[str, bytes], stdout: str, workdir: str) -> None:
        #: relative output filename -> bytes
        self.outputs = outputs
        self.stdout = stdout
        self.workdir = workdir

    @property
    def output_bytes(self) -> int:
        return sum(len(data) for data in self.outputs.values())

    def output(self, name: str) -> bytes:
        try:
            return self.outputs[name]
        except KeyError:
            raise OperationExecutionError(
                f"operation produced no output file {name!r}; got "
                f"{sorted(self.outputs)}"
            ) from None


class Sandbox:
    """Per-invocation working directories + restricted execution."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._serial = itertools.count(1)

    def make_workdir(self, session_tag: str) -> str:
        """A unique temporary directory, named after the session like the
        paper's startup servlet does."""
        safe_tag = "".join(c for c in session_tag if c.isalnum() or c in "-_") or "anon"
        path = os.path.join(self.root, f"{safe_tag}_{next(self._serial):06d}")
        os.makedirs(path, exist_ok=False)
        return path

    def cleanup(self, workdir: str) -> None:
        if os.path.abspath(workdir).startswith(self.root):
            shutil.rmtree(workdir, ignore_errors=True)

    # -- execution ---------------------------------------------------------------

    def run_source(
        self,
        source: str,
        workdir: str,
        input_filename: str,
        params: dict[str, Any] | None = None,
        policy: SandboxPolicy | None = None,
    ) -> SandboxResult:
        """Execute ``source`` inside ``workdir`` under ``policy``.

        The code sees ``INPUT_FILENAME`` (the dataset file, relative to the
        working directory), ``PARAMS`` (user parameters) and a confined
        ``open``.  Files it writes (other than the input) are collected as
        outputs.
        """
        policy = policy or SandboxPolicy.for_uploads()
        params = dict(params or {})
        workdir = os.path.abspath(workdir)
        if not workdir.startswith(self.root):
            raise SandboxViolation(f"workdir {workdir} escapes the sandbox root")

        stdout_chunks: list[str] = []
        written: dict[str, int] = {}

        def _resolve(name: str) -> str:
            if os.path.isabs(name):
                raise SandboxViolation(
                    f"absolute paths are forbidden in the sandbox: {name!r}"
                )
            full = os.path.abspath(os.path.join(workdir, name))
            if not full.startswith(workdir + os.sep) and full != workdir:
                raise SandboxViolation(f"path {name!r} escapes the working directory")
            return full

        def safe_open(name, mode="r", *args, **kwargs):
            if any(flag in mode for flag in ("w", "a", "x", "+")):
                full = _resolve(str(name))
                written[os.path.relpath(full, workdir)] = 0
                return open(full, mode, *args, **kwargs)
            return open(_resolve(str(name)), mode, *args, **kwargs)

        def safe_print(*args, **kwargs):
            end = kwargs.get("end", "\n")
            sep = kwargs.get("sep", " ")
            stdout_chunks.append(sep.join(str(a) for a in args) + end)

        def safe_import(name, globals=None, locals=None, fromlist=(), level=0):
            root_name = name.split(".")[0]
            if root_name not in policy.allowed_modules:
                raise SandboxViolation(f"import of {name!r} is not permitted")
            return builtins.__import__(name, globals, locals, fromlist, level)

        safe_builtins = {
            name: getattr(builtins, name) for name in _SAFE_BUILTIN_NAMES
        }
        safe_builtins["open"] = safe_open
        safe_builtins["print"] = safe_print
        safe_builtins["__import__"] = safe_import

        env = {
            "__builtins__": safe_builtins,
            "__name__": "__sandbox__",
            "INPUT_FILENAME": input_filename,
            "PARAMS": params,
        }

        steps = [0]

        def tracer(frame, event, arg):
            steps[0] += 1
            if steps[0] > policy.max_steps:
                raise SandboxViolation(
                    f"step budget of {policy.max_steps} exceeded"
                )
            return tracer

        try:
            code = compile(source, "<operation>", "exec")
        except SyntaxError as exc:
            raise OperationExecutionError(f"operation code does not compile: {exc}")

        # chdir rather than only confining open(): numpy's relative-path
        # file I/O resolves against the process's cwd
        with _CWD_LOCK:
            previous_cwd = os.getcwd()
            os.chdir(workdir)  # the batch file's `cd` step
            if not policy.trusted:
                sys.settrace(tracer)
            try:
                exec(code, env)
            except SandboxViolation:
                raise
            except Exception as exc:
                raise OperationExecutionError(
                    f"operation raised {type(exc).__name__}: {exc}"
                ) from exc
            finally:
                if not policy.trusted:
                    sys.settrace(None)
                os.chdir(previous_cwd)

        outputs: dict[str, bytes] = {}
        total = 0
        for dirpath, _dirnames, filenames in os.walk(workdir):
            for filename in filenames:
                full = os.path.join(dirpath, filename)
                rel = os.path.relpath(full, workdir)
                if rel == input_filename or rel.endswith(".py"):
                    continue
                with open(full, "rb") as fh:
                    data = fh.read()
                total += len(data)
                if total > policy.max_output_bytes:
                    raise SandboxViolation(
                        f"output exceeds {policy.max_output_bytes} bytes"
                    )
                outputs[rel] = data
        return SandboxResult(outputs, "".join(stdout_chunks), workdir)
