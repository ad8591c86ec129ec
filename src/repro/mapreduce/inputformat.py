"""Input formats: split generation + record reading (paper section 3).

``TextInputFormat`` reproduces Hadoop's line-oriented reader including the
subtle split-boundary rule: a reader whose split does not start at byte 0
skips its first (partial) line, and every reader continues past its
split's end to finish the final line it started.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.common.errors import StorageError
from repro.common.keys import KEY_SPLIT_SIZE
from repro.hdfs.filesystem import MiniDFS
from repro.mapreduce.job import JobConf
from repro.mapreduce.types import FileSplit, InputSplit, RecordReader


class InputFormat(ABC):
    """Generates splits and record readers for a job's input."""

    @abstractmethod
    def get_splits(self, fs: MiniDFS, conf: JobConf) -> list[InputSplit]:
        ...

    @abstractmethod
    def get_record_reader(self, fs: MiniDFS, split: InputSplit,
                          conf: JobConf,
                          reader_node: str | None = None) -> RecordReader:
        ...


class FileInputFormat(InputFormat):
    """Base class: one split per HDFS block of each input file."""

    def list_input_files(self, fs: MiniDFS, conf: JobConf) -> list[str]:
        files: list[str] = []
        for path in conf.input_paths():
            if fs.exists(path):
                files.append(path)
            else:
                children = [p for p in fs.list_dir(path)
                            if not p.rsplit("/", 1)[-1].startswith(".")]
                if not children:
                    raise StorageError(f"input path {path} matches no files")
                files.extend(children)
        return files

    def get_splits(self, fs: MiniDFS, conf: JobConf) -> list[InputSplit]:
        max_split = conf.get_int(KEY_SPLIT_SIZE, 0)
        splits: list[InputSplit] = []
        for path in self.list_input_files(fs, conf):
            for location in fs.block_locations(path):
                if max_split and location.length > max_split:
                    offset = location.offset
                    remaining = location.length
                    while remaining > 0:
                        size = min(max_split, remaining)
                        splits.append(FileSplit(path, offset, size,
                                                location.hosts))
                        offset += size
                        remaining -= size
                else:
                    splits.append(FileSplit(path, location.offset,
                                            location.length, location.hosts))
        return splits


class _LineRecordReader(RecordReader):
    """Reads (byte offset, line) pairs from one file split."""

    def __init__(self, fs: MiniDFS, split: FileSplit,
                 reader_node: str | None):
        self._fs = fs
        self._split = split
        self._reader_node = reader_node
        self._bytes_read = 0
        self._lines = self._load_lines()
        self._cursor = 0

    def _load_lines(self) -> list[tuple[int, str]]:
        split = self._split
        file_length = self._fs.file_length(split.path)
        # Over-read so the last line that starts inside the split can be
        # finished, exactly like Hadoop's LineRecordReader.
        read_end = min(file_length, split.start + split.length + 64 * 1024)
        data = self._fs.read_range(split.path, split.start,
                                   read_end - split.start,
                                   reader_node=self._reader_node)
        self._bytes_read = min(split.length, len(data))
        lines: list[tuple[int, str]] = []
        position = split.start
        if split.start > 0:
            # Skip the partial first line; its owner is the previous split.
            newline = data.find(b"\n")
            if newline < 0:
                return []
            data = data[newline + 1:]
            position += newline + 1
        # Hadoop reads a line if it *starts* at or before the split end
        # (pos <= end); the next split always discards its first line, so
        # boundary lines are consumed exactly once.
        limit = split.start + split.length
        start = 0
        while position <= limit:
            newline = data.find(b"\n", start)
            if newline < 0:
                tail = data[start:]
                if tail:
                    lines.append((position, tail.decode("utf-8")))
                break
            lines.append((position, data[start:newline].decode("utf-8")))
            position += newline - start + 1
            start = newline + 1
        return lines

    @property
    def bytes_read(self) -> int:
        return self._bytes_read

    def next(self) -> tuple[Any, Any] | None:
        if self._cursor >= len(self._lines):
            return None
        pair = self._lines[self._cursor]
        self._cursor += 1
        return pair


class TextInputFormat(FileInputFormat):
    """Line-oriented input: keys are byte offsets, values are lines."""

    def get_record_reader(self, fs: MiniDFS, split: InputSplit,
                          conf: JobConf,
                          reader_node: str | None = None) -> RecordReader:
        if not isinstance(split, FileSplit):
            raise StorageError(
                f"TextInputFormat cannot read {type(split).__name__}")
        return _LineRecordReader(fs, split, reader_node)


class WholeFileInputFormat(FileInputFormat):
    """One split per file; the reader yields a single (path, bytes) pair.

    Used by TestDFSIO-style jobs and for broadcast-file handling.
    """

    def get_splits(self, fs: MiniDFS, conf: JobConf) -> list[InputSplit]:
        splits = []
        for path in self.list_input_files(fs, conf):
            locations = fs.block_locations(path)
            hosts = locations[0].hosts if locations else ()
            splits.append(FileSplit(path, 0, fs.file_length(path), hosts))
        return splits

    def get_record_reader(self, fs: MiniDFS, split: InputSplit,
                          conf: JobConf,
                          reader_node: str | None = None) -> RecordReader:
        if not isinstance(split, FileSplit):
            raise StorageError(
                f"WholeFileInputFormat cannot read {type(split).__name__}")
        return _WholeFileReader(fs, split, reader_node)


class _WholeFileReader(RecordReader):
    def __init__(self, fs: MiniDFS, split: FileSplit,
                 reader_node: str | None):
        self._fs = fs
        self._split = split
        self._reader_node = reader_node
        self._done = False
        self._bytes = 0

    @property
    def bytes_read(self) -> int:
        return self._bytes

    def next(self) -> tuple[Any, Any] | None:
        if self._done:
            return None
        self._done = True
        data = self._fs.read_file(self._split.path,
                                  reader_node=self._reader_node)
        self._bytes = len(data)
        return self._split.path, data
