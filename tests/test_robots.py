"""RFC 9309 robots.txt semantics (sidecar/robots.py — shared by the
HostPolicy actors and the oracle crawler)."""

from sidecar.robots import is_allowed, parse_robots

TXT = """
# comment
User-agent: googlebot
Disallow: /g/

User-agent: *
Disallow: /page/1
Allow: /page/10
Disallow: /private/*/tmp
Disallow: /exact$
"""


def test_group_selection():
    star = parse_robots(TXT, agent="*")
    goog = parse_robots(TXT, agent="googlebot")
    assert ("/g/", False) in goog and ("/page/1", False) not in goog
    assert ("/page/1", False) in star


def test_longest_match_allow_override():
    rules = parse_robots(TXT)
    assert not is_allowed(rules, "/page/1")      # disallowed
    assert not is_allowed(rules, "/page/12")     # prefix match
    assert is_allowed(rules, "/page/10")         # longer Allow wins
    assert is_allowed(rules, "/page/100")        # Allow prefix still longer
    assert is_allowed(rules, "/page/2")          # no rule


def test_wildcard_and_anchor():
    rules = parse_robots(TXT)
    assert not is_allowed(rules, "/private/a/tmp")
    assert not is_allowed(rules, "/private/a/b/tmpfile")
    assert is_allowed(rules, "/private/a/keep")
    assert not is_allowed(rules, "/exact")       # $ anchors end
    assert is_allowed(rules, "/exact/sub")


def test_allow_wins_length_tie():
    rules = [("/a/b", False), ("/a/b", True)]
    assert is_allowed(rules, "/a/b/c")


def test_empty_disallow_allows_all():
    rules = parse_robots("User-agent: *\nDisallow:\n")
    assert rules == []
    assert is_allowed(rules, "/anything")


def test_consecutive_user_agents_share_group():
    txt = "User-agent: a\nUser-agent: b\nDisallow: /x\n"
    assert parse_robots(txt, agent="a") == [("/x", False)]
    assert parse_robots(txt, agent="b") == [("/x", False)]
    assert parse_robots(txt, agent="c") == []    # no * group


def test_synth_robots_variety():
    """The deterministic corpus exercises override/anchor paths."""
    from sidecar import synth

    txts = [synth.robots_txt(h) for h in synth.hosts(200)]
    assert any("Allow: " in t for t in txts)
    assert any("$" in t for t in txts)
    assert any(t == "User-agent: *\nDisallow:\n" for t in txts)


def test_note_denied_idempotency_and_epoch_pruning():
    """The metrics fold drops a re-reported (task, content) key, counts
    distinct tasks with identical content separately, and prunes per-epoch
    key sets as the epoch advances."""
    from sidecar.actors import HostPolicy

    # HostPolicy is @ray.remote-decorated; unit-test the plain class
    hp = HostPolicy.__ray_metadata__.modified_class(0, budget_per_epoch=5,
                                                    n_hosts=4)
    hp.note_denied(3, "t1:aaaa", 0)
    hp.note_denied(3, "t1:aaaa", 0)          # retry of the same batch
    assert hp.denied_robots == 3
    hp.note_denied(3, "t2:aaaa", 0)          # distinct task, same content
    assert hp.denied_robots == 6
    hp.note_denied(1, "t3:bbbb", 2)          # epoch advance prunes epoch 0
    assert 0 not in hp._denied_keys and 2 in hp._denied_keys
