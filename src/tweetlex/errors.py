"""Exception and warning types shared across the package."""


class TweetlexError(Exception):
    """Base class for all tweetlex errors."""


class FileUnreadable(TweetlexError):
    """A required input file is missing or cannot be read."""


class UnusableLexicon(TweetlexError):
    """Both sentiment wordlists ended up empty after loading."""


class PathUnwritable(TweetlexError):
    """An output path cannot be opened for writing."""


class EmptyWordlistWarning(UserWarning):
    """A wordlist file yielded zero usable tokens."""


class DroppedEntriesWarning(UserWarning):
    """A wordlist contained entries that had to be ignored."""
