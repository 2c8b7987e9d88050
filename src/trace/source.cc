#include "src/trace/source.hh"

namespace mtv
{

std::vector<Instruction>
materialize(InstructionSource &source, size_t limit)
{
    source.reset();
    std::vector<Instruction> out;
    Instruction inst;
    while (source.next(inst)) {
        out.push_back(inst);
        if (limit && out.size() >= limit)
            break;
    }
    source.reset();
    return out;
}

std::shared_ptr<const PackedStream>
packSource(InstructionSource &source, size_t limit)
{
    source.reset();
    auto stream = std::make_shared<PackedStream>();
    Instruction inst;
    while ((!limit || stream->size() < limit) && source.next(inst))
        stream->push_back(inst);
    source.reset();
    return stream;
}

} // namespace mtv
