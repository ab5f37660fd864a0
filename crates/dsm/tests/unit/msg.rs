//! The unit tests of `repseq_dsm::msg`, kept out of `src` (the module
//! includes this file by path).

use super::*;
use crate::diff::Diff;

#[test]
fn wire_sizes_scale_with_content() {
    let small = DsmMsg::DiffRequest { page: 1, ivxs: vec![1], from: 0, req_id: 0 };
    let big = DsmMsg::DiffRequest { page: 1, ivxs: vec![1; 10], from: 0, req_id: 0 };
    assert!(big.wire_size() > small.wire_size());

    let d = Arc::new(crate::page::DiffRecord {
        owner: 0,
        covers: vec![1],
        diff: Diff::create(&[0u8; 64], &[1u8; 64]),
    });
    let reply = DsmMsg::DiffReply { page: 1, diffs: vec![d], req_id: 0, image: None };
    assert!(reply.wire_size() > 64);
}

#[test]
fn null_ack_is_small() {
    let ack = DsmMsg::McastNullAck { page: 0, turn: 3, req_seq: 9 };
    assert!(ack.wire_size() <= 32);
}

/// Every message's class, and whether its node's handler (not its
/// application) serves it: what each send site once stated for itself.
#[test]
fn every_message_names_its_class_and_receiver() {
    use DsmMsg as M;
    use MsgClass::*;
    let vc = || Vc::zero(2);
    let table = [
        (M::DiffRequest { page: 0, ivxs: vec![], from: 0, req_id: 0 }, DiffRequest, true),
        (M::DiffReply { page: 0, diffs: vec![], req_id: 0, image: None }, DiffReply, false),
        (M::BarrierArrive { from: 0, vc: vc(), records: vec![] }, Sync, true),
        (M::BarrierDepart { records: vec![], vc: vc() }, Sync, false),
        (M::LockAcquire { lock: 0, from: 0, vc: vc(), forwarded: false }, Lock, true),
        (M::LockGrant { lock: 0, records: vec![], vc: vc() }, Lock, false),
        (M::Fork { records: vec![], vc: vc(), task: Task::Shutdown }, Sync, false),
        (M::Join { from: 0, vc: vc(), records: vec![] }, Sync, false),
        (M::ValidNoticeRequest, ValidNotice, false),
        (M::ValidNoticeReply { from: 0, delta: vec![] }, ValidNotice, false),
        (M::ValidNoticeTable { deltas: Arc::new([]) }, ValidNotice, true),
        (M::McastRequest { page: 0, wanted: vec![], requester: 0, epoch: 0 }, DiffRequest, true),
        (
            M::McastForward { page: 0, wanted: vec![], requester: 0, req_seq: 0 },
            ForwardedRequest,
            true,
        ),
        (M::McastDiffReply { page: 0, diffs: vec![], turn: 0, req_seq: 0 }, DiffReply, true),
        (M::McastNullAck { page: 0, turn: 0, req_seq: 0 }, NullAck, true),
        (M::RecoveryRequest { page: 0, ivxs: vec![] }, DiffRequest, true),
        (M::SeqDone { from: 0 }, Sync, false),
        (M::SeqGo { retired: Arc::new([]) }, Sync, false),
        (M::PageBroadcast { page: 0, data: Arc::new([]), vc: vc() }, Broadcast, true),
        (M::WakePage { page: 0 }, Other, false),
    ];
    let kinds: std::collections::HashSet<_> = table.iter().map(|r| r.0.kind()).collect();
    assert_eq!(kinds.len(), table.len(), "one row per message");
    for (msg, class, to_handler) in &table {
        let row = (msg.class(), msg.to_handler());
        assert_eq!(row, (*class, *to_handler), "{}", msg.kind());
    }
}

#[test]
fn debug_shows_kind() {
    let m = DsmMsg::SeqGo { retired: Arc::new([]) };
    assert_eq!(format!("{m:?}"), "DsmMsg::SeqGo(8 bytes)");
}

/// The pages a `SeqGo` carries are no replica's news: its wire size is
/// the bare release's, whatever it holds.
#[test]
fn seq_go_is_eight_bytes_whatever_it_carries() {
    let page = Arc::new([1; crate::config::PAGE_SIZE]);
    let retired: Arc<[_]> = (0..3).map(|p| (p, Arc::clone(&page))).collect();
    assert_eq!(DsmMsg::SeqGo { retired }.wire_size(), 8);
    assert_eq!(DsmMsg::SeqGo { retired: Arc::new([]) }.wire_size(), 8);
}

/// The page a `DiffReply` lends is no news to its requester, which needs
/// only the diffs: its wire size is the diffs' alone.
#[test]
fn a_diff_reply_s_wire_size_ignores_its_image() {
    let d = Arc::new(crate::page::DiffRecord {
        owner: 0,
        covers: vec![1],
        diff: Diff::create(&[0u8; 64], &[1u8; 64]),
    });
    let reply =
        |image| DsmMsg::DiffReply { page: 1, diffs: vec![Arc::clone(&d)], req_id: 0, image };
    let lent = reply(Some(Arc::new([1; crate::config::PAGE_SIZE])));
    assert_eq!(lent.wire_size(), reply(None).wire_size());
}
