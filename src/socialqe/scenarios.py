"""Bundled synthetic scenarios.

Four fixed shapes exercise the evaluation harness end to end:

- false-positive-peak: a short-lived event whose vocabulary later reattaches
  to an unrelated story, so the fixed global expansion keeps matching links
  on days where the day-local expansion (correctly) matches nothing.
- aspect-shift: a long-running hashtag whose conversation jumps to a new
  aspect on certain days; only the local expansion picks the aspect up.
- dominant-event: a quiet recurring topic with a two-day spike that hijacks
  the merged expansion; also hosts a pair of near-duplicate hashtags whose
  vectors share 9 of 10 ngrams (fingerprint neighbors).
- single-event: one stable story, identical vocabulary every day, where both
  strategies select the same expansions and match the same links.

plus a sizing helper for throughput benchmarks.
"""

from __future__ import annotations

from datetime import date

from socialqe.synth import EventSpec, LinkTemplate, ScenarioSpec


def _drift_links(n: int) -> tuple[LinkTemplate, ...]:
    return tuple(
        LinkTemplate(
            url=f"http://sports.example.com/news/ronaldo-transfer-{i}",
            title=f"Cristiano Ronaldo transfer rumor {i}",
            description="Sources close to the club hint at a record fee.",
        )
        for i in range(1, n + 1)
    )


def false_positive_peak() -> ScenarioSpec:
    """Event on days 1-4; from day 6 the star's name drifts to transfer news."""
    event_days = tuple(date(2016, 6, d) for d in range(1, 5))
    drift_days = tuple(date(2016, 6, d) for d in range(6, 13))
    return ScenarioSpec(
        name="false-positive-peak",
        start=date(2016, 6, 1),
        end=date(2016, 6, 12),
        events=(
            EventSpec(
                hashtag="euro2016",
                days=event_days,
                phrases=("cristiano ronaldo", "portugal victory", "final goal"),
                accounts=60,
                links=(
                    LinkTemplate(
                        url="http://news.example.com/sport/portugal-victory-final",
                        title="Portugal victory seals the final",
                        description="Fans celebrate the portugal victory.",
                    ),
                    LinkTemplate(
                        url="http://news.example.com/sport/final-goal-report",
                        title="Final goal decides a tense match",
                        description="Match report of the final goal.",
                    ),
                ),
            ),
            EventSpec(
                hashtag="",
                days=drift_days,
                phrases=("cristiano ronaldo transfer",),
                accounts=5,
                links=_drift_links(15),
                pool="transfer-talk",
            ),
        ),
        noise_rate=20,
        noise_vocabulary=(
            "morning commute",
            "weekend plans",
            "coffee break",
            "new recipe tonight",
        ),
        noise_accounts=40,
    )


def aspect_shift() -> ScenarioSpec:
    """Generic chatter dominates most days; days 2 and 4 pivot to new aspects."""
    generic_phrases = (
        "trump campaign",
        "clinton speech",
        "election polls",
        "debate night",
    )
    generic_links = (
        LinkTemplate(
            url="http://politics.example.com/story/trump-campaign-rally",
            title="Trump campaign rally coverage",
            description="Full coverage of the latest rally.",
        ),
        LinkTemplate(
            url="http://politics.example.com/story/clinton-speech-transcript",
            title="Clinton speech transcript released",
            description="The complete transcript of the address.",
        ),
        LinkTemplate(
            url="http://politics.example.com/story/election-polls-tighten",
            title="Election polls tighten again",
            description="New numbers from three swing states.",
        ),
    )

    def aspect_links(slug: str, label: str) -> tuple[LinkTemplate, ...]:
        return tuple(
            LinkTemplate(
                url=f"http://politics.example.com/story/{slug}-{i}",
                title=f"{label} draws fresh reactions {i}",
                description=f"Reactions keep coming after the {label.lower()} story.",
            )
            for i in range(1, 16)
        )

    tag = "basketofdeplorables"
    return ScenarioSpec(
        name="aspect-shift",
        start=date(2016, 9, 1),
        end=date(2016, 9, 6),
        events=(
            EventSpec(
                hashtag=tag,
                days=(
                    date(2016, 9, 1),
                    date(2016, 9, 3),
                    date(2016, 9, 5),
                    date(2016, 9, 6),
                ),
                phrases=generic_phrases,
                accounts=150,
                links=generic_links,
                pool="bod-generic",
            ),
            EventSpec(
                hashtag=tag,
                days=(date(2016, 9, 2), date(2016, 9, 4)),
                phrases=generic_phrases,
                accounts=10,
                links=generic_links,
                pool="bod-generic",
            ),
            EventSpec(
                hashtag=tag,
                days=(date(2016, 9, 2),),
                phrases=("alicia machado",),
                accounts=60,
                links=aspect_links("machado-interview", "Alicia Machado interview"),
                pool="bod-aspect-a",
            ),
            EventSpec(
                hashtag=tag,
                days=(date(2016, 9, 4),),
                phrases=("david duke",),
                accounts=60,
                links=aspect_links("duke-endorsement", "David Duke endorsement"),
                pool="bod-aspect-b",
            ),
        ),
        noise_rate=15,
        noise_vocabulary=("lunch special", "traffic update", "rainy afternoon"),
        noise_accounts=30,
        lexicon=("basket", "of", "deplorables", "alicia", "machado", "david", "duke"),
    )


# Shared vocabulary of the near-duplicate pair: same phrases, same account
# counts on both sides, so the two vectors agree on 9 weighted ngrams and
# differ only in one low-weight term each.
_SAGA_PHRASES = (
    "jedi",
    "droid",
    "lightsaber",
    "falcon",
    "wookiee",
    "empire",
    "rebellion",
    "galaxy",
    "saga",
)
_SAGA_COUNTS = (200, 185, 170, 155, 140, 125, 110, 95, 80)


def dominant_event() -> ScenarioSpec:
    """A quiet topic with a two-day spike, plus the near-duplicate pair."""
    quiet_days = tuple(date(2016, 12, d) for d in range(19, 24))
    spike_days = (date(2016, 12, 20), date(2016, 12, 21))
    pair_day = (date(2016, 12, 20),)
    return ScenarioSpec(
        name="dominant-event",
        start=date(2016, 12, 19),
        end=date(2016, 12, 23),
        events=(
            EventSpec(
                hashtag="berlin",
                days=quiet_days,
                phrases=("christmas market", "city lights tour"),
                accounts=15,
                links=(
                    LinkTemplate(
                        url="http://travel.example.com/berlin/christmas-market-guide",
                        title="Christmas market guide for the season",
                        description="Where to find the best stalls.",
                    ),
                ),
                pool="berlin-quiet",
            ),
            EventSpec(
                hashtag="berlin",
                days=spike_days,
                phrases=("truck attack", "breitscheidplatz vigil", "police manhunt"),
                accounts=180,
                links=(
                    LinkTemplate(
                        url="http://news.example.com/berlin/truck-attack-report",
                        title="Truck attack shakes the city",
                        description="Live updates on the truck attack.",
                    ),
                    LinkTemplate(
                        url="http://news.example.com/berlin/breitscheidplatz-vigil",
                        title="Breitscheidplatz vigil draws thousands",
                        description="Mourners gather for the vigil.",
                    ),
                    LinkTemplate(
                        url="http://news.example.com/berlin/police-manhunt-latest",
                        title="Police manhunt enters second day",
                        description="The police manhunt continues.",
                    ),
                ),
                pool="berlin-spike",
            ),
            EventSpec(
                hashtag="starwars",
                days=pair_day,
                phrases=_SAGA_PHRASES + ("prequel",),
                accounts=200,
                phrase_accounts=_SAGA_COUNTS + (40,),
                pool="fans-a",
            ),
            EventSpec(
                hashtag="rogueone",
                days=pair_day,
                phrases=_SAGA_PHRASES + ("scarif",),
                accounts=200,
                phrase_accounts=_SAGA_COUNTS + (40,),
                pool="fans-b",
            ),
        ),
        noise_rate=10,
        noise_vocabulary=("holiday shopping", "year in review"),
        noise_accounts=25,
        lexicon=("star", "wars", "rogue", "one", "berlin"),
    )


def single_event() -> ScenarioSpec:
    """One story, stable vocabulary, identical posting pattern every day."""
    days = tuple(date(2016, 12, d) for d in range(27, 32))

    def link(slug: str, title: str) -> LinkTemplate:
        return LinkTemplate(
            url=f"http://ent.example.com/news/{slug}",
            title=title,
            description="Tributes continue across the fan community.",
        )

    return ScenarioSpec(
        name="single-event",
        start=days[0],
        end=days[-1],
        events=(
            EventSpec(
                hashtag="carriefisher",
                days=days,
                phrases=("carrie fisher tribute", "star wars legacy"),
                accounts=40,
                links=(
                    link("carrie-fisher-tribute-pours", "Carrie Fisher tribute pours in"),
                    link("star-wars-legacy-remembered", "Star wars legacy remembered"),
                    link("carrie-fisher-tribute-concert", "Carrie Fisher tribute concert"),
                    link("star-wars-legacy-panel", "Star wars legacy panel discussion"),
                    link("carrie-fisher-tribute-mural", "Carrie Fisher tribute mural unveiled"),
                ),
            ),
        ),
        noise_rate=12,
        noise_vocabulary=("quiet evening", "book recommendations", "snow forecast"),
        noise_accounts=20,
        lexicon=("carrie", "fisher", "star", "wars"),
    )


def performance_scenario() -> ScenarioSpec:
    """Exactly 100 000 tweets across 10 days for build throughput runs."""
    days = tuple(date(2017, 3, d) for d in range(1, 11))
    load_events = tuple(
        EventSpec(
            hashtag=f"load{t}",
            days=days,
            phrases=tuple(f"node{t} stream{p} latency profile" for p in range(10)),
            accounts=99,
            pool=f"load-{t}",
        )
        for t in range(10)
    )
    news_event = EventSpec(
        hashtag="perfnews",
        days=days,
        phrases=("cluster rollout", "nightly benchmark"),
        accounts=10,
        links=(
            LinkTemplate(
                url="http://eng.example.com/blog/cluster-rollout-notes",
                title="Cluster rollout notes",
                description="What changed in the cluster rollout.",
            ),
            LinkTemplate(
                url="http://eng.example.com/blog/nightly-benchmark-results",
                title="Nightly benchmark results",
                description="Numbers from the nightly benchmark.",
            ),
        ),
        pool="eng",
    )
    # 10 tags x 10 days x 99 accounts x 10 phrases = 99 000
    # + perfnews 10 days x 10 accounts x 2 phrases   =    200
    # + noise 80 x 10 days                           =    800
    return ScenarioSpec(
        name="performance-100k",
        start=days[0],
        end=days[-1],
        events=load_events + (news_event,),
        noise_rate=80,
        noise_vocabulary=("standup notes", "deploy window", "pager quiet"),
        noise_accounts=50,
    )


_BUNDLED = {
    "false-positive-peak": false_positive_peak,
    "aspect-shift": aspect_shift,
    "dominant-event": dominant_event,
    "single-event": single_event,
}


def bundled_names() -> list[str]:
    return sorted(_BUNDLED)


def get_scenario(name: str) -> ScenarioSpec:
    factory = _BUNDLED.get(name)
    if factory is None:
        raise LookupError(
            f"unknown scenario {name!r}; bundled: {', '.join(bundled_names())}"
        )
    return factory()
