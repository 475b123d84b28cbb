"""Forum dataset: users, posts, votes, comments.

Generative process:

* users have a base posting rate and an *encouragement sensitivity*;
* each post's vote count is driven by its author's latent talent and
  the post topic's popularity;
* a user's posting rate is **multiplied** by a feedback factor that
  grows with the votes their recent posts received — so whether a user
  posts next week depends on information that is two foreign-key hops
  away (user → their posts → votes on those posts);
* comments are additional one-hop noise activity.

This is the dataset where the GNN's advantage over one-hop tabular
features should be largest, and where depth 2 should clearly beat
depth 1 (Figure 1).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.datasets.base import assemble, choice_cdfs
from repro.relational import ColumnSpec, Database, DType, ForeignKey, TableSchema

__all__ = ["make_forum"]

_DAY = 86400
_TOPICS = ["python", "sql", "ml", "devops", "frontend", "random"]


def make_forum(
    num_users: int = 250,
    span_days: int = 360,
    seed: int = 0,
) -> Database:
    """Build the forum database (week-quantized activity simulation)."""
    rng = np.random.default_rng(seed)
    num_weeks = span_days // 7
    week = 7 * _DAY

    signup = rng.integers(0, (span_days // 3) * _DAY, size=num_users)
    talent = rng.normal(0, 1, size=num_users)
    base_rate = np.exp(rng.normal(np.log(1.0), 0.4, size=num_users))  # posts/week
    sensitivity = rng.uniform(0.5, 2.0, size=num_users)
    topic_pref = rng.dirichlet(np.full(len(_TOPICS), 0.6), size=num_users)
    topic_popularity = np.exp(rng.normal(0, 0.5, size=len(_TOPICS)))

    topic_cdf = choice_cdfs(topic_pref)
    # Expected votes on a post, by (author, topic).
    expected_votes = (np.exp(0.8 * talent)[:, None] * topic_popularity).tolist()

    # One pass in the generator's draw order; a topic draw is
    # ``bisect_right(cdf, rng.random())``, the draw ``rng.choice`` makes.
    integers, poisson, random = rng.integers, rng.poisson, rng.random
    post_user, post_topic, post_ts, vote_counts, voters, vote_delay = [], [], [], [], [], []
    commented, commenters, comment_delay = [], [], []
    # recent_votes[u] = votes received by u's posts in the previous week.
    recent_votes = np.zeros(num_users)
    for week_index in range(num_weeks):
        week_start = week_index * week
        # The planted two-hop signal: next week's posting rate is
        # driven by the votes last week's posts received.
        feedback = sensitivity * np.log1p(recent_votes)
        rate = np.minimum(base_rate * 0.35 * np.exp(0.7 * feedback), 6.0).tolist()
        received = [0] * num_users
        for user in np.flatnonzero(signup <= week_start).tolist():
            for _ in range(poisson(rate[user])):
                topic = bisect_right(topic_cdf[user], random())
                ts = week_start + int(integers(0, week))
                post_user.append(user)
                post_topic.append(topic)
                post_ts.append(ts)
                # Votes arrive shortly after the post.
                num_votes = poisson(expected_votes[user][topic])
                vote_counts.append(num_votes)
                received[user] += num_votes
                for _ in range(num_votes):
                    voters.append(integers(0, num_users))
                    vote_delay.append(integers(0, 3 * _DAY))
                if random() < 0.5:
                    commented.append(len(post_ts) - 1)
                    commenters.append(integers(0, num_users))
                    comment_delay.append(integers(0, 2 * _DAY))
        recent_votes = np.array(received, dtype=np.float64)

    post_ts = np.array(post_ts, dtype=np.int64)
    post_ids = np.arange(len(post_ts))
    vote_posts = np.repeat(post_ids, np.array(vote_counts, dtype=np.int64))
    commented = np.array(commented, dtype=np.int64)

    return assemble("forum", [
        (
            TableSchema(
                "users",
                [
                    ColumnSpec("id", DType.INT64),
                    ColumnSpec("signup_ts", DType.TIMESTAMP),
                ],
                primary_key="id",
                time_column="signup_ts",
            ),
            {"id": np.arange(num_users), "signup_ts": signup},
        ),
        (
            TableSchema(
                "posts",
                [
                    ColumnSpec("id", DType.INT64),
                    ColumnSpec("user_id", DType.INT64),
                    ColumnSpec("topic", DType.STRING),
                    ColumnSpec("ts", DType.TIMESTAMP),
                ],
                primary_key="id",
                foreign_keys=[ForeignKey("user_id", "users", "id")],
                time_column="ts",
            ),
            {
                "id": post_ids,
                "user_id": np.array(post_user, dtype=np.int64),
                "topic": np.array(_TOPICS, dtype=object)[np.array(post_topic, dtype=np.int64)],
                "ts": post_ts,
            },
        ),
        (
            TableSchema(
                "votes",
                [
                    ColumnSpec("id", DType.INT64),
                    ColumnSpec("post_id", DType.INT64),
                    ColumnSpec("voter_id", DType.INT64),
                    ColumnSpec("ts", DType.TIMESTAMP),
                ],
                primary_key="id",
                foreign_keys=[
                    ForeignKey("post_id", "posts", "id"),
                    ForeignKey("voter_id", "users", "id"),
                ],
                time_column="ts",
            ),
            {
                "id": np.arange(len(vote_posts)),
                "post_id": vote_posts,
                "voter_id": np.array(voters, dtype=np.int64),
                "ts": post_ts[vote_posts] + np.array(vote_delay, dtype=np.int64),
            },
        ),
        (
            TableSchema(
                "comments",
                [
                    ColumnSpec("id", DType.INT64),
                    ColumnSpec("post_id", DType.INT64),
                    ColumnSpec("user_id", DType.INT64),
                    ColumnSpec("ts", DType.TIMESTAMP),
                ],
                primary_key="id",
                foreign_keys=[
                    ForeignKey("post_id", "posts", "id"),
                    ForeignKey("user_id", "users", "id"),
                ],
                time_column="ts",
            ),
            {
                "id": np.arange(len(commented)),
                "post_id": commented,
                "user_id": np.array(commenters, dtype=np.int64),
                "ts": post_ts[commented] + np.array(comment_delay, dtype=np.int64),
            },
        ),
    ])
