"""Tests for the procedural video corpus."""

import numpy as np
import pytest

from repro.errors import VideoFormatError
from repro.types import Richness
from repro.video.metrics import ssim
from repro.video.synthetic import (
    SyntheticVideo,
    make_standard_videos,
)


class TestSyntheticVideo:
    def test_determinism_same_seed(self):
        a = SyntheticVideo("a", Richness.HIGH, 144, 256, num_frames=3, seed=9)
        b = SyntheticVideo("b", Richness.HIGH, 144, 256, num_frames=3, seed=9)
        np.testing.assert_array_equal(a.frame(2).y, b.frame(2).y)

    def test_different_seeds_differ(self):
        a = SyntheticVideo("a", Richness.HIGH, 144, 256, num_frames=2, seed=1)
        b = SyntheticVideo("b", Richness.HIGH, 144, 256, num_frames=2, seed=2)
        assert not np.array_equal(a.frame(0).y, b.frame(0).y)

    def test_hr_has_higher_variance_than_lr(self, hr_video, lr_video):
        assert hr_video.y_variance() > lr_video.y_variance()

    def test_temporal_coherence(self, hr_video):
        """Adjacent frames are similar; distant frames less so."""
        near = ssim(hr_video.frame(0), hr_video.frame(1))
        far = ssim(hr_video.frame(0), hr_video.frame(8))
        assert near > far

    def test_motion_moves_content(self):
        video = SyntheticVideo("m", Richness.HIGH, 144, 256,
                               num_frames=4, motion=4.0, seed=2)
        assert not np.array_equal(video.frame(0).y, video.frame(1).y)

    def test_frame_index_bounds(self, hr_video):
        with pytest.raises(VideoFormatError):
            hr_video.frame(hr_video.num_frames)
        with pytest.raises(VideoFormatError):
            hr_video.frame(-1)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(VideoFormatError):
            SyntheticVideo("x", Richness.HIGH, 100, 256, num_frames=2)

    def test_frames_returns_all(self):
        video = SyntheticVideo("f", Richness.LOW, 144, 256, num_frames=3, seed=1)
        assert len(video.frames()) == 3

    def test_chroma_has_content(self, hr_video):
        frame = hr_video.frame(0)
        assert frame.u.std() > 1.0


class TestCorpus:
    def test_standard_corpus_is_3_hr_3_lr(self):
        videos = make_standard_videos(height=144, width=256, num_frames=2)
        richness = [v.richness for v in videos]
        assert richness.count(Richness.HIGH) == 3
        assert richness.count(Richness.LOW) == 3

    def test_corpus_videos_are_distinct(self):
        videos = make_standard_videos(height=144, width=256, num_frames=2)
        first_frames = [v.frame(0).y for v in videos]
        for i in range(len(videos)):
            for j in range(i + 1, len(videos)):
                assert not np.array_equal(first_frames[i], first_frames[j])

    def test_hr_lr_split_holds_statistically(self):
        videos = make_standard_videos(height=144, width=256, num_frames=2)
        hr = np.mean([v.y_variance() for v in videos if v.richness is Richness.HIGH])
        lr = np.mean([v.y_variance() for v in videos if v.richness is Richness.LOW])
        assert hr > lr
