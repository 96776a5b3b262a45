"""The usage line and the -h text of the command line, laid out from the
table of commands and flags in cli (COMMANDS) as argparse lays them out
when stdout is not a terminal: lines of at most 78 columns, and each help
text from column 24."""

from __future__ import annotations

from .cli import _HELP, COMMANDS, DESCRIPTION, PROG, Flag

WIDTH = 78
HELP_COLUMN = 24
COMMAND_CHOICES = f"{{{','.join(COMMANDS)}}}"


def _fill(words: list[str], width: int, indent: int = 0) -> list[str]:
    """Words joined by spaces, greedily, into lines of at most width columns;
    each line after the first starts with indent spaces."""
    lines = [words[0]]
    for word in words[1:]:
        if len(lines[-1]) + 1 + len(word) > width:
            lines.append(" " * indent + word)
        else:
            lines[-1] += " " + word
    return lines


def _invocation(flag: Flag) -> str:
    if flag is _HELP:
        return "-h, --help"
    if flag.value is int:
        return f"--{flag.name} {flag.name.upper()}"
    if isinstance(flag.value, tuple):
        return f"--{flag.name} {{{','.join(flag.value)}}}"
    return f"--{flag.name} {flag.value}"


def usage(command: str | None) -> str:
    """The usage line of command, or of the program when command is None."""
    if command is None:
        parts = [f"usage: {PROG}", "[-h]", f"{COMMAND_CHOICES} ..."]
    else:
        parts = [f"usage: {PROG} {command}", "[-h]"]
        for flag in COMMANDS[command][2]:
            part = _invocation(flag)
            parts.append(part if flag.required else f"[{part}]")
    return "\n".join(_fill(parts, WIDTH, len(parts[0]) + 1)) + "\n"


def _entry(indent: int, invocation: str, text: str) -> list[str]:
    """One entry of -h: the invocation, and its help text from column 24,
    on the next line when the invocation reaches that column."""
    head = " " * indent + invocation
    if not text:
        return [head]
    lines = [" " * HELP_COLUMN + line for line in _fill(text.split(), WIDTH - HELP_COLUMN)]
    if len(head) <= HELP_COLUMN - 2:
        lines[0] = head.ljust(HELP_COLUMN) + lines[0].lstrip()
        return lines
    return [head, *lines]


def help_text(command: str | None) -> str:
    """What -h prints for command, or for the program when command is None."""
    lines = [usage(command)]
    if command is None:
        lines += [*_fill(DESCRIPTION.split(), WIDTH), ""]
        lines += ["positional arguments:", f"  {COMMAND_CHOICES}"]
        for name, (_, text, _) in COMMANDS.items():
            lines += _entry(4, name, text)
        lines.append("")
    lines.append("options:")
    for flag in (_HELP, *(COMMANDS[command][2] if command else ())):
        lines += _entry(2, _invocation(flag), flag.help)
    return "\n".join(lines) + "\n"
